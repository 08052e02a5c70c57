package hap

import (
	"bytes"
	"encoding/binary"
	"math"
	"slices"
	"testing"
)

// binaryPayload plans the quickstart MLP and returns its WriteProgramBinary
// bytes and the segment assignment planning left on the graph.
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
	return buf.Bytes(), g.SegmentOf
}

// FuzzReadProgramBinary feeds arbitrary bytes to the binary plan decoder,
// bound to a fresh quickstart graph that already carries a segment
// assignment. It must never panic; a rejected payload must leave the graph's
// assignment as it was; an accepted one must re-encode to a payload that
// decodes to the same program, ratios and cost.
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
		plan, err := ReadProgramBinary(bytes.NewReader(data), g)
		if err != nil {
			if !slices.Equal(g.SegmentOf, prev) {
				t.Fatalf("rejected payload (%v) changed the graph's segment assignment to %v", err, g.SegmentOf)
			}
			return
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
