package hap

import (
	"bytes"
	"encoding/binary"
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

// binaryPayload plans the quickstart MLP and returns its WriteProgramBinary
// bytes and the segment assignment of the graph the plan binds.
func binaryPayload(t testing.TB, opt Options) ([]byte, []int) {
	t.Helper()
	g := quickstartGraph(t)
	plan, err := planWith(g, heteroPair(), opt)
	if err != nil {
		t.Fatalf("Plan: %v", err)
	}
	var buf bytes.Buffer
	if err := plan.WriteProgramBinary(&buf); err != nil {
		t.Fatalf("WriteProgramBinary: %v", err)
	}
	return buf.Bytes(), plan.Program.Graph.SegmentOf
}

// withTrailer returns a copy of a binary payload whose JSON trailer edit has
// rewritten, framed anew: the program section is untouched.
func withTrailer(t testing.TB, payload []byte, edit func(m map[string]json.RawMessage)) []byte {
	t.Helper()
	progEnd := len(payload) - 8 - int(binary.BigEndian.Uint32(payload[len(payload)-8:]))
	var m map[string]json.RawMessage
	if err := json.Unmarshal(payload[progEnd:len(payload)-8], &m); err != nil {
		t.Fatalf("trailer: %v", err)
	}
	edit(m)
	tr, err := json.Marshal(m)
	if err != nil {
		t.Fatalf("trailer: %v", err)
	}
	out := append(slices.Clone(payload[:progEnd]), tr...)
	out = binary.BigEndian.AppendUint32(out, uint32(len(tr)))
	return append(out, planwire.Magic[:]...)
}

// graphHashSpan returns where the graph hash lies in a binary payload.
func graphHashSpan(payload []byte) (from, to int) {
	pos := 5 // magic and version
	_, n := binary.Uvarint(payload[pos:])
	pos += n
	hashLen, n := binary.Uvarint(payload[pos:])
	return pos + n, pos + n + int(hashLen)
}

// badPayload is an input the plan reader must refuse, with the phrase its
// error must carry.
type badPayload struct {
	name, want string
	data       []byte
}

// badPayloads edits the quickstart plan's payloads (flat, and seg4 planned
// with Segments: 4) into inputs the reader must refuse: malformed ratios, an
// input that is no plan payload, and programs that no longer bind to the
// quickstart graph.
func badPayloads(t testing.TB, flat, seg4 []byte) []badPayload {
	ratios := func(v string) []byte {
		return withTrailer(t, flat, func(m map[string]json.RawMessage) { m["ratios"] = json.RawMessage(v) })
	}
	segs := func(m map[string]json.RawMessage) {
		var s []int
		if err := json.Unmarshal(m["segment_of"], &s); err != nil {
			t.Fatal(err)
		}
		m["segment_of"], _ = json.Marshal(s[:len(s)-1])
	}
	from, to := graphHashSpan(flat)
	forged := slices.Clone(flat)
	copy(forged[from:to], strings.Repeat("0", to-from))
	return []badPayload{
		{"null ratios", "segments", ratios("null")},
		{"ratios not summing to 1", "sums to", ratios("[[0.5, 0.2]]")},
		{"empty ratio row", "devices", ratios("[[]]")},
		{"negative ratio", "not a valid ratio", ratios("[[1.5, -0.5]]")},
		{"not a plan", "suffix", []byte("{}")},
		{"short segment assignment", "segment assignment covers", withTrailer(t, seg4, segs)},
		{"forged graph hash", "fingerprint mismatch", forged},
		{"unknown op", "unknown op", bytes.Replace(flat, []byte("relu"), []byte("rulu"), 1)},
	}
}

// Malformed ratios, non-plan input and a program that does not bind must be
// rejected at load time, not crash later inside Verify/Simulate.
func TestReadProgramRejectsBadRatios(t *testing.T) {
	flat, _ := binaryPayload(t, Options{})
	seg4, _ := binaryPayload(t, Options{Segments: 4})
	for _, tc := range badPayloads(t, flat, seg4) {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadProgramBinary(bytes.NewReader(tc.data), quickstartGraph(t))
			if err == nil {
				t.Fatal("ReadProgramBinary accepted malformed input")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// Plan bytes are a function of the inputs: planning one input twice must
// serialize identically (the daemon's strong ETag hashes these bytes, so a
// wall-clock field would give one key two ETags).
func TestPlanBytesDeterministic(t *testing.T) {
	a, _ := binaryPayload(t, Options{})
	b, _ := binaryPayload(t, Options{})
	if !bytes.Equal(a, b) {
		t.Errorf("WriteProgramBinary differs between two plans of one input (%d vs %d bytes)", len(a), len(b))
	}
}

// A plan produced with Segments > 1 must re-load against a freshly built
// (unsegmented) graph: the program binds to a copy of that graph carrying the
// serialized segment assignment, since a fresh process cannot reproduce it
// otherwise, and the fresh graph itself stays unsegmented. The re-loaded
// plan verifies and simulates.
func TestSegmentedPlanReloadsOnFreshGraph(t *testing.T) {
	c := heteroPair()
	plan, err := planWith(quickstartGraph(t), c, Options{Segments: 2})
	if err != nil {
		t.Fatalf("Plan: %v", err)
	}
	if len(plan.Ratios) != 2 {
		t.Fatalf("expected 2 ratio rows, got %v", plan.Ratios)
	}
	var buf bytes.Buffer
	if err := plan.WriteProgramBinary(&buf); err != nil {
		t.Fatalf("WriteProgramBinary: %v", err)
	}

	g2 := quickstartGraph(t) // fresh process: same model, no segmentation
	back, err := ReadProgramBinary(&buf, g2)
	if err != nil {
		t.Fatalf("ReadProgramBinary on fresh graph: %v", err)
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
	if dt := Simulate(back, c, 1); dt <= 0 {
		t.Errorf("Simulate on re-loaded segmented plan = %v", dt)
	}
}

// A failed read must not leave the caller's graph mutated: a plan already
// bound to the graph would index its ratio rows with the clobbered segment
// assignment.
func TestFailedReadProgramLeavesGraphUnmutated(t *testing.T) {
	c := heteroPair()
	seg2, _ := binaryPayload(t, Options{Segments: 2})
	g2 := quickstartGraph(t)
	back, err := ReadProgramBinary(bytes.NewReader(seg2), g2)
	if err != nil {
		t.Fatalf("ReadProgramBinary: %v", err)
	}
	before := GraphIdentity(t, g2)

	// Corrupt the plan so the load fails at the binding check: stripping
	// segment_of changes the fingerprint of the graph the program would bind
	// to, so the program no longer binds.
	bad := withTrailer(t, seg2, func(m map[string]json.RawMessage) { delete(m, "segment_of") })
	if _, err := ReadProgramBinary(bytes.NewReader(bad), g2); err == nil {
		t.Fatal("ReadProgramBinary accepted a plan with a stripped segment assignment")
	} else if !strings.Contains(err.Error(), "fingerprint mismatch") {
		t.Errorf("unexpected error: %v", err)
	}
	if GraphIdentity(t, g2) != before {
		t.Fatalf("failed ReadProgramBinary wrote the graph: segment assignment now %v", g2.SegmentOf)
	}
	// The previously loaded plan still works against the intact graph.
	if err := Verify(back, c.M(), 3); err != nil {
		t.Errorf("plan bound before the failed load no longer verifies: %v", err)
	}
}

// Binding a serialized plan to the wrong graph must fail loudly, not produce
// a silently wrong program.
func TestReadProgramRejectsWrongGraph(t *testing.T) {
	flat, _ := binaryPayload(t, Options{})
	other := NewGraph()
	other.AddPlaceholder("x", 0, 2, 2)
	if _, err := ReadProgramBinary(bytes.NewReader(flat), other); err == nil {
		t.Fatal("ReadProgramBinary bound a plan to the wrong graph")
	} else if !strings.Contains(err.Error(), "node") {
		t.Errorf("unexpected error: %v", err)
	}
}

// rawDim is the shard dim one computation's bytes carry.
type rawDim struct {
	flagged bool
	v       uint64
}

// rawShardDims walks the instruction framing of a binary program section and
// returns, per computation in order, the shard dim its bytes carry. It reads
// nothing else — no table, no binding — so an accepted plan can be held to
// what its bytes say; ok is false when the framing does not parse.
func rawShardDims(prog []byte) (dims []rawDim, ok bool) {
	pos, bad := 5, len(prog) < 5 // past magic and version
	uv := func() uint64 {
		v, n := binary.Uvarint(prog[min(pos, len(prog)):])
		if n <= 0 {
			bad = true
			return 0
		}
		pos += n
		return v
	}
	skip := func(n uint64) {
		if n > uint64(len(prog)-pos) {
			bad, pos = true, len(prog)
			return
		}
		pos += int(n)
	}
	uv()                           // node count
	skip(uv())                     // graph hash
	for tbl := 0; tbl < 2; tbl++ { // op and collective name tables
		for k := uv(); k > 0 && !bad; k-- {
			skip(uv())
		}
	}
	for k := uv(); k > 0 && !bad; k-- {
		if pos >= len(prog) {
			return nil, false
		}
		flags := prog[pos]
		pos++
		uv() // ref
		if flags&1 != 0 {
			uv() // collective, dim, dim2
			uv()
			uv()
			continue
		}
		uv() // op
		d := rawDim{flagged: flags&4 != 0}
		if d.flagged {
			d.v = uv()
		}
		dims = append(dims, d)
	}
	return dims, !bad
}

// FuzzReadProgramBinary feeds arbitrary bytes to the binary plan decoder,
// bound to a fresh quickstart graph that already carries a segment
// assignment. It must never panic; no read, accepted or rejected, may write
// the graph; an accepted payload must bind to a graph carrying the trailer's
// segment assignment and say what its bytes say (every
// computation's shard dim, flagged or not, is the one in the payload — the
// committed corpus holds a flagged 2^64−1 that once read as −1, replicated)
// and re-encode to a payload that decodes to the same program, ratios and
// cost.
func FuzzReadProgramBinary(f *testing.F) {
	flat, _ := binaryPayload(f, Options{})
	seg4, prev := binaryPayload(f, Options{Segments: 4})
	f.Add(flat)
	f.Add(seg4)
	f.Add(flat[:len(flat)/2]) // truncated
	pastEnd := slices.Clone(flat)
	binary.BigEndian.PutUint32(pastEnd[len(pastEnd)-8:], uint32(len(pastEnd)))
	f.Add(pastEnd) // trailer length past the end
	// An implausible instruction count: the real header up to the graph
	// hash, empty name tables, 2^40 instructions, then the real trailer.
	_, pos := graphHashSpan(flat)
	tlen := int(binary.BigEndian.Uint32(flat[len(flat)-8:]))
	huge := append(slices.Clone(flat[:pos]), 0, 0)
	huge = binary.AppendUvarint(huge, 1<<40)
	f.Add(append(huge, flat[len(flat)-8-tlen:]...))
	// Each payload TestReadProgramRejectsBadRatios holds to its rejection.
	for _, bad := range badPayloads(f, flat, seg4) {
		f.Add(bad.data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		g := quickstartGraph(t)
		g.SegmentOf = slices.Clone(prev)
		before := GraphIdentity(t, g)
		plan, err := ReadProgramBinary(bytes.NewReader(data), g)
		if GraphIdentity(t, g) != before {
			t.Fatalf("a read (err %v) wrote the graph: segment assignment now %v", err, g.SegmentOf)
		}
		if err != nil {
			return
		}
		progEnd := len(data) - 8 - int(binary.BigEndian.Uint32(data[len(data)-8:]))
		var tr planwire.Trailer
		if err := json.Unmarshal(data[progEnd:len(data)-8], &tr); err != nil {
			t.Fatalf("accepted a payload whose trailer does not decode: %v", err)
		}
		if !slices.Equal(plan.Program.Graph.SegmentOf, tr.SegmentOf) {
			t.Fatalf("the plan's graph carries segment assignment %v, the trailer %v", plan.Program.Graph.SegmentOf, tr.SegmentOf)
		}
		dims, ok := rawShardDims(data[:progEnd])
		var comps []int
		for i, in := range plan.Program.Instrs {
			if !in.IsComm {
				comps = append(comps, i)
			}
		}
		if !ok || len(dims) != len(comps) {
			t.Fatalf("accepted a payload whose framing holds %d computations (ok %v), the plan %d", len(dims), ok, len(comps))
		}
		for k, i := range comps {
			sd := plan.Program.Instrs[i].ShardDim
			if d := dims[k]; d.flagged != (sd >= 0) || d.flagged && d.v != uint64(sd) {
				t.Errorf("instr %d: the payload carries shard dim %+v, the plan says %d", i, d, sd)
			}
		}
		var buf bytes.Buffer
		if err := plan.WriteProgramBinary(&buf); err != nil {
			t.Fatalf("accepted plan does not re-encode: %v", err)
		}
		back, err := ReadProgramBinary(&buf, quickstartGraph(t))
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
