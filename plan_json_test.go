package hap

import (
	"bytes"
	"encoding/json"
	"math"
	"slices"
	"strings"
	"testing"

	"hap/internal/graph"
	"hap/internal/planwire"
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
// (unsegmented) graph: the program binds to a copy of that graph carrying the
// serialized segment assignment, since a fresh process cannot reproduce it
// otherwise, and the fresh graph itself stays unsegmented.
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
	if n := back.Program.Graph.NumSegments(); n != 2 {
		t.Errorf("the plan's graph has %d segments, want 2", n)
	}
	if n := g2.NumSegments(); n != 1 {
		t.Errorf("reading the plan wrote the fresh graph: %d segments", n)
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

	// Corrupt the plan so the load fails at the binding check: stripping
	// segment_of changes the fingerprint of the graph the program would bind
	// to, so the program no longer binds.
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

// jsonPayload plans the quickstart MLP and returns its WriteProgram bytes and
// the segment assignment planning left on the graph.
func jsonPayload(t testing.TB, opt Options) ([]byte, []int) {
	t.Helper()
	g := quickstartGraph(t)
	plan, err := planWith(g, heteroPair(), opt)
	if err != nil {
		t.Fatalf("Plan: %v", err)
	}
	var buf bytes.Buffer
	if err := plan.WriteProgram(&buf); err != nil {
		t.Fatalf("WriteProgram: %v", err)
	}
	return buf.Bytes(), plan.Program.Graph.SegmentOf
}

// GraphIdentity is what a graph's cache key and request body are made of:
// its fingerprint and its encoding. Exported for the hap_test package.
func GraphIdentity(t testing.TB, g *Graph) string {
	t.Helper()
	var buf bytes.Buffer
	if err := g.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return graph.Fingerprint(g) + "\n" + buf.String()
}

// FuzzReadProgram holds the JSON plan decoder to the properties
// FuzzReadProgramBinary holds the binary one to, bound to a fresh quickstart
// graph that already carries a segment assignment: no input panics it, no
// read, accepted or rejected, writes the graph, and an accepted one binds to
// a graph carrying the payload's segment assignment and re-encodes to a plan
// that decodes to the same program, ratios and cost.
func FuzzReadProgram(f *testing.F) {
	flat, _ := jsonPayload(f, Options{})
	seg4, prev := jsonPayload(f, Options{Segments: 4})
	f.Add(flat)
	f.Add(seg4)
	f.Add(flat[:len(flat)/2]) // truncated
	tamper := func(body []byte, edit func(plan, prog map[string]any)) []byte {
		var plan map[string]any
		if err := json.Unmarshal(body, &plan); err != nil {
			f.Fatal(err)
		}
		prog := plan["program"].(map[string]any)
		edit(plan, prog)
		out, err := json.Marshal(plan)
		if err != nil {
			f.Fatal(err)
		}
		return out
	}
	// Edge bodies, each rejected for the reason its name gives.
	for _, edge := range []struct {
		want string
		body []byte
	}{
		{"segment assignment covers", tamper(seg4, func(plan, _ map[string]any) {
			segs := plan["segment_of"].([]any)
			plan["segment_of"] = segs[:len(segs)-1]
		})},
		{"fingerprint mismatch", tamper(flat, func(_, prog map[string]any) { prog["graph_hash"] = "0123456789abcdef" })},
		{"unknown op", tamper(flat, func(_, prog map[string]any) {
			prog["instrs"].([]any)[0].(map[string]any)["op"] = "convolve"
		})},
	} {
		if _, err := ReadProgram(bytes.NewReader(edge.body), quickstartGraph(f)); err == nil || !strings.Contains(err.Error(), edge.want) {
			f.Fatalf("edge seed: err = %v, want %q", err, edge.want)
		}
		f.Add(edge.body)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		g := quickstartGraph(t)
		g.SegmentOf = slices.Clone(prev)
		before := GraphIdentity(t, g)
		plan, err := ReadProgram(bytes.NewReader(data), g)
		if GraphIdentity(t, g) != before {
			t.Fatalf("a read (err %v) wrote the graph: segment assignment now %v", err, g.SegmentOf)
		}
		if err != nil {
			return
		}
		var doc planwire.JSON
		if err := json.NewDecoder(bytes.NewReader(data)).Decode(&doc); err != nil {
			t.Fatalf("accepted a plan that does not decode: %v", err)
		}
		if !slices.Equal(plan.Program.Graph.SegmentOf, doc.SegmentOf) {
			t.Fatalf("the plan's graph carries segment assignment %v, the payload %v", plan.Program.Graph.SegmentOf, doc.SegmentOf)
		}
		var buf bytes.Buffer
		if err := plan.WriteProgram(&buf); err != nil {
			t.Fatalf("accepted plan does not re-encode: %v", err)
		}
		back, err := ReadProgram(&buf, quickstartGraph(t))
		if err != nil {
			t.Fatalf("re-encoded plan does not decode: %v", err)
		}
		if got, want := back.Program.String(), plan.Program.String(); got != want {
			t.Errorf("re-encoding changed the program:\n%s\nvs\n%s", got, want)
		}
		if !slices.EqualFunc(back.Ratios, plan.Ratios, slices.Equal[[]float64]) {
			t.Errorf("re-encoding changed the ratios: %v vs %v", back.Ratios, plan.Ratios)
		}
		if math.Float64bits(back.Cost) != math.Float64bits(plan.Cost) {
			t.Errorf("re-encoding changed the cost: %v vs %v", back.Cost, plan.Cost)
		}
	})
}
