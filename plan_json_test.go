package hap

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// quickstartGraph mirrors examples/quickstart: a small MLP with backward pass.
func quickstartGraph(t testing.TB) *Graph {
	t.Helper()
	g := NewGraph()
	x := g.AddPlaceholder("x", 0, 64, 48)
	w1 := g.AddParameter("w1", 48, 32)
	w2 := g.AddParameter("w2", 32, 8)
	h := g.AddOp(ReLU, g.AddOp(MatMul, x, w1))
	logits := g.AddOp(MatMul, h, w2)
	g.SetLoss(g.AddOp(Sum, g.AddScale(logits, 1.0/64)))
	if err := Backward(g); err != nil {
		t.Fatalf("Backward: %v", err)
	}
	return g
}

func heteroPair() *Cluster {
	return PerGPU(
		MachineSpec{Type: V100, GPUs: 1},
		MachineSpec{Type: P100, GPUs: 1},
	)
}

// A plan must survive the JSON round-trip bit-for-bit: same disassembly, same
// ratios, same modeled cost — and the re-loaded program must still verify
// numerically and simulate.
func TestPlanJSONRoundTrip(t *testing.T) {
	g := quickstartGraph(t)
	c := heteroPair()
	plan, err := planWith(g, c, Options{})
	if err != nil {
		t.Fatalf("Plan: %v", err)
	}

	var buf bytes.Buffer
	if err := plan.WriteProgram(&buf); err != nil {
		t.Fatalf("WriteProgram: %v", err)
	}
	back, err := ReadProgram(bytes.NewReader(buf.Bytes()), g)
	if err != nil {
		t.Fatalf("ReadProgram: %v", err)
	}

	if got, want := back.Program.String(), plan.Program.String(); got != want {
		t.Errorf("round-trip changed the program:\n%s\nvs\n%s", got, want)
	}
	if back.Cost != plan.Cost {
		t.Errorf("round-trip cost %v != %v", back.Cost, plan.Cost)
	}
	if len(back.Ratios) != len(plan.Ratios) {
		t.Fatalf("round-trip ratios %v != %v", back.Ratios, plan.Ratios)
	}
	for k := range plan.Ratios {
		for j := range plan.Ratios[k] {
			if back.Ratios[k][j] != plan.Ratios[k][j] {
				t.Fatalf("round-trip ratios %v != %v", back.Ratios, plan.Ratios)
			}
		}
	}

	// The re-loaded plan is a first-class plan: verifiable and simulatable.
	if err := Verify(back, c.M(), 7); err != nil {
		t.Errorf("Verify on re-loaded plan: %v", err)
	}
	if dt := Simulate(back, c, 1); dt <= 0 {
		t.Errorf("Simulate on re-loaded plan = %v", dt)
	}
}

// Plan bytes are a function of the inputs: planning one input twice must
// serialize identically in both wire forms (the daemon's strong ETag hashes
// these bytes, so a wall-clock field would give one key two ETags).
func TestPlanBytesDeterministic(t *testing.T) {
	g := quickstartGraph(t)
	c := heteroPair()
	var text, bin [2]bytes.Buffer
	for i := range text {
		plan, err := planWith(g, c, Options{})
		if err != nil {
			t.Fatalf("Plan: %v", err)
		}
		if err := plan.WriteProgram(&text[i]); err != nil {
			t.Fatalf("WriteProgram: %v", err)
		}
		if err := plan.WriteProgramBinary(&bin[i]); err != nil {
			t.Fatalf("WriteProgramBinary: %v", err)
		}
	}
	if !bytes.Equal(text[0].Bytes(), text[1].Bytes()) {
		t.Errorf("WriteProgram differs between two plans of one input:\n%s\nvs\n%s", text[0].Bytes(), text[1].Bytes())
	}
	if !bytes.Equal(bin[0].Bytes(), bin[1].Bytes()) {
		t.Errorf("WriteProgramBinary differs between two plans of one input (%d vs %d bytes)", bin[0].Len(), bin[1].Len())
	}
}

// A plan produced with Segments > 1 must re-load against a freshly built
// (unsegmented) graph: the serialized segment assignment is adopted onto the
// binding graph, since a fresh process cannot reproduce it otherwise.
func TestSegmentedPlanReloadsOnFreshGraph(t *testing.T) {
	g1 := quickstartGraph(t)
	c := heteroPair()
	plan, err := planWith(g1, c, Options{Segments: 2})
	if err != nil {
		t.Fatalf("Plan: %v", err)
	}
	if len(plan.Ratios) != 2 {
		t.Fatalf("expected 2 ratio rows, got %v", plan.Ratios)
	}
	var buf bytes.Buffer
	if err := plan.WriteProgram(&buf); err != nil {
		t.Fatalf("WriteProgram: %v", err)
	}

	g2 := quickstartGraph(t) // fresh process: same model, no segmentation
	back, err := ReadProgram(bytes.NewReader(buf.Bytes()), g2)
	if err != nil {
		t.Fatalf("ReadProgram on fresh graph: %v", err)
	}
	if g2.NumSegments() != 2 {
		t.Errorf("segment assignment not adopted: %d segments", g2.NumSegments())
	}
	if got, want := back.Program.String(), plan.Program.String(); got != want {
		t.Errorf("round-trip changed the program:\n%s\nvs\n%s", got, want)
	}
	if err := Verify(back, c.M(), 5); err != nil {
		t.Errorf("Verify on re-loaded segmented plan: %v", err)
	}
}

// Malformed ratios and non-plan input must be rejected at load time, not
// crash later inside Verify/Simulate.
func TestReadProgramRejectsBadRatios(t *testing.T) {
	g := quickstartGraph(t)
	plan, err := planWith(g, heteroPair(), Options{})
	if err != nil {
		t.Fatalf("Plan: %v", err)
	}
	var buf bytes.Buffer
	if err := plan.WriteProgram(&buf); err != nil {
		t.Fatalf("WriteProgram: %v", err)
	}
	tamper := func(f func(m map[string]json.RawMessage)) string {
		var m map[string]json.RawMessage
		if err := json.Unmarshal(buf.Bytes(), &m); err != nil {
			t.Fatalf("unmarshal: %v", err)
		}
		f(m)
		out, err := json.Marshal(m)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		return string(out)
	}

	cases := []struct {
		name, json, wantSub string
	}{
		{"null ratios", tamper(func(m map[string]json.RawMessage) {
			m["ratios"] = json.RawMessage("null")
		}), "segments"},
		{"ratios not summing to 1", tamper(func(m map[string]json.RawMessage) {
			m["ratios"] = json.RawMessage("[[0.5, 0.2]]")
		}), "sums to"},
		{"empty ratio row", tamper(func(m map[string]json.RawMessage) {
			m["ratios"] = json.RawMessage("[[]]")
		}), "devices"},
		{"negative ratio", tamper(func(m map[string]json.RawMessage) {
			m["ratios"] = json.RawMessage("[[1.5, -0.5]]")
		}), "not a valid ratio"},
		{"not a plan", "{}", `"program" section`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadProgram(strings.NewReader(tc.json), g)
			if err == nil {
				t.Fatal("ReadProgram accepted malformed input")
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Errorf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
}

// A failed ReadProgram must not leave the caller's graph mutated: a plan
// already bound to the graph would index its ratio rows with the clobbered
// segment assignment.
func TestFailedReadProgramLeavesGraphUnmutated(t *testing.T) {
	g1 := quickstartGraph(t)
	c := heteroPair()
	plan, err := planWith(g1, c, Options{Segments: 2})
	if err != nil {
		t.Fatalf("Plan: %v", err)
	}
	var buf bytes.Buffer
	if err := plan.WriteProgram(&buf); err != nil {
		t.Fatalf("WriteProgram: %v", err)
	}
	g2 := quickstartGraph(t)
	back, err := ReadProgram(bytes.NewReader(buf.Bytes()), g2)
	if err != nil {
		t.Fatalf("ReadProgram: %v", err)
	}
	before := append([]int(nil), g2.SegmentOf...)

	// Corrupt the plan so the load fails *after* the segment assignment
	// would have been adopted: stripping segment_of changes the graph
	// fingerprint, so the program no longer binds.
	var m map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &m); err != nil {
		t.Fatal(err)
	}
	delete(m, "segment_of")
	bad, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReadProgram(bytes.NewReader(bad), g2); err == nil {
		t.Fatal("ReadProgram accepted a plan with a stripped segment assignment")
	}
	if len(g2.SegmentOf) != len(before) {
		t.Fatalf("failed ReadProgram mutated SegmentOf: %v vs %v", g2.SegmentOf, before)
	}
	for i := range before {
		if g2.SegmentOf[i] != before[i] {
			t.Fatalf("failed ReadProgram mutated SegmentOf: %v vs %v", g2.SegmentOf, before)
		}
	}
	// The previously loaded plan still works against the intact graph.
	if err := Verify(back, c.M(), 3); err != nil {
		t.Errorf("plan bound before the failed load no longer verifies: %v", err)
	}
}

// Binding a serialized plan to the wrong graph must fail loudly, not produce
// a silently wrong program.
func TestReadProgramRejectsWrongGraph(t *testing.T) {
	g := quickstartGraph(t)
	plan, err := planWith(g, heteroPair(), Options{})
	if err != nil {
		t.Fatalf("Plan: %v", err)
	}
	var buf bytes.Buffer
	if err := plan.WriteProgram(&buf); err != nil {
		t.Fatalf("WriteProgram: %v", err)
	}
	other := NewGraph()
	other.AddPlaceholder("x", 0, 2, 2)
	if _, err := ReadProgram(bytes.NewReader(buf.Bytes()), other); err == nil {
		t.Fatal("ReadProgram bound a plan to the wrong graph")
	} else if !strings.Contains(err.Error(), "node") {
		t.Errorf("unexpected error: %v", err)
	}
}
