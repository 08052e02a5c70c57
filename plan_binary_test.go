package hap

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"slices"
	"testing"

	"hap/internal/planwire"
)

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
	pos := 5 // magic and version
	_, n := binary.Uvarint(flat[pos:])
	pos += n
	hashLen, n := binary.Uvarint(flat[pos:])
	pos += n + int(hashLen)
	tlen := int(binary.BigEndian.Uint32(flat[len(flat)-8:]))
	huge := append(slices.Clone(flat[:pos]), 0, 0)
	huge = binary.AppendUvarint(huge, 1<<40)
	f.Add(append(huge, flat[len(flat)-8-tlen:]...))

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
