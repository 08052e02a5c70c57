// Package planwire reads the two wire forms of a plan: the JSON document
// Plan.WriteProgram writes and the binary payload Plan.WriteProgramBinary
// writes. The hap package wraps these readers (hap.ReadProgram,
// hap.ReadProgramBinary) and writes the forms itself; the client calls the
// readers directly so it can hand over the graph fingerprint it already
// computed for the plan's cache key, sparing the binding check a second hash
// of the same graph.
//
// A reader never writes the graph it is given. The program binds to that
// graph when it already carries the plan's segment assignment, and to a
// shallow copy carrying the assignment otherwise (graph.Graph.WithSegmentOf).
//
// Binary layout:
//
//	dist.EncodeBinary(program) · trailer JSON · uint32 trailer length (BE) · "HAPT"
//
// The program section comes first and is self-delimiting, so a reader that
// only wants the program can hand the whole payload to dist.DecodeBinary —
// trailing bytes are ignored. ReadBinary locates the trailer from the
// fixed-size suffix.
package planwire

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"

	"hap/internal/dist"
	"hap/internal/graph"
)

// JSON is the serialized form of a plan. The graph travels separately: the
// reader re-binds the program to a caller-provided graph. SegmentOf is
// carried because planning with Segments > 1 assigns it internally — a fresh
// process rebuilding the model graph has no way to reproduce it.
type JSON struct {
	Program   json.RawMessage `json:"program"`
	Ratios    [][]float64     `json:"ratios"`
	SegmentOf []int           `json:"segment_of,omitempty"`
	Cost      float64         `json:"cost"`
}

// Trailer is the JSON metadata appended after the binary program — the JSON
// fields that dist.EncodeBinary does not carry.
type Trailer struct {
	Ratios    [][]float64 `json:"ratios"`
	SegmentOf []int       `json:"segment_of,omitempty"`
	Cost      float64     `json:"cost"`
}

// Magic terminates every binary plan payload.
var Magic = [4]byte{'H', 'A', 'P', 'T'}

// ReadJSON loads a plan in the JSON form, binding its program to g (which
// must be the graph the plan was synthesized for) or to a copy of g carrying
// the plan's segment assignment, and validating it. fp, when not empty, must
// be graph.Fingerprint(g).
func ReadJSON(r io.Reader, g *graph.Graph, fp string) (*dist.Program, [][]float64, float64, error) {
	fail := func(err error) (*dist.Program, [][]float64, float64, error) {
		return nil, nil, 0, fmt.Errorf("hap: read plan: %w", err)
	}
	var pj JSON
	if err := json.NewDecoder(r).Decode(&pj); err != nil {
		return fail(err)
	}
	if len(pj.Program) == 0 {
		return fail(fmt.Errorf("input has no %q section (not written by Plan.WriteProgram?)", "program"))
	}
	bg, fp, err := binding(g, pj.SegmentOf, fp)
	if err != nil {
		return fail(err)
	}
	prog, err := dist.DecodeWithFingerprint(bytes.NewReader(pj.Program), bg, fp)
	if err == nil {
		err = ValidateRatios(pj.Ratios, bg.NumSegments())
	}
	if err != nil {
		return fail(err)
	}
	return prog, pj.Ratios, pj.Cost, nil
}

// ReadBinary is ReadJSON for a binary payload held in memory.
func ReadBinary(data []byte, g *graph.Graph, fp string) (*dist.Program, [][]float64, float64, error) {
	fail := func(err error) (*dist.Program, [][]float64, float64, error) {
		return nil, nil, 0, fmt.Errorf("hap: read binary plan: %w", err)
	}
	progEnd, err := frame(data)
	if err != nil {
		return fail(err)
	}
	var tr Trailer
	if err := json.Unmarshal(data[progEnd:len(data)-8], &tr); err != nil {
		return fail(fmt.Errorf("trailer: %w", err))
	}
	bg, fp, err := binding(g, tr.SegmentOf, fp)
	if err != nil {
		return fail(err)
	}
	prog, err := dist.DecodeBinaryWithFingerprint(data[:progEnd], bg, fp)
	if err == nil {
		err = ValidateRatios(tr.Ratios, bg.NumSegments())
	}
	if err != nil {
		return fail(err)
	}
	return prog, tr.Ratios, tr.Cost, nil
}

// frame checks a binary payload's framing, decoding nothing — the trailer
// length and Magic at the end, a trailer that lies inside the payload after
// the program's 4-byte magic, and that magic at the start — and returns
// where the trailer begins.
func frame(data []byte) (int, error) {
	if len(data) < 8 || !bytes.Equal(data[len(data)-4:], Magic[:]) {
		return 0, fmt.Errorf("missing %q suffix (not written by WriteProgramBinary?)", Magic[:])
	}
	// The length field is untrusted: compare in uint64 so a huge value cannot
	// wrap through int conversion on 32-bit platforms and dodge the check.
	tlen32 := binary.BigEndian.Uint32(data[len(data)-8 : len(data)-4])
	if uint64(tlen32)+8+4 > uint64(len(data)) {
		return 0, fmt.Errorf("trailer length %d exceeds the %d-byte payload", tlen32, len(data))
	}
	if !dist.HasBinaryMagic(data) {
		return 0, fmt.Errorf("no binary program magic (not written by WriteProgramBinary?)")
	}
	return len(data) - 8 - int(tlen32), nil
}

// Framed reports whether data is framed as a binary plan payload (see
// frame). A plan store checks this on intake, where there is no graph to
// bind a decode to.
func Framed(data []byte) bool {
	_, err := frame(data)
	return err == nil
}

// binding returns the graph a plan carrying segmentOf binds to, and the
// fingerprint its binding check may take as given: g and fp when g carries
// the assignment already, else a copy of g carrying it and "" — the
// fingerprint covers the assignment, so the copy is hashed afresh. An
// assignment that does not cover g is refused.
func binding(g *graph.Graph, segmentOf []int, fp string) (*graph.Graph, string, error) {
	if len(segmentOf) != 0 && len(segmentOf) != g.NumNodes() {
		return nil, "", fmt.Errorf("segment assignment covers %d nodes, the graph has %d", len(segmentOf), g.NumNodes())
	}
	if bg := g.WithSegmentOf(segmentOf); bg != g {
		return bg, "", nil
	}
	return g, fp, nil
}

// ValidateRatios rejects sharding-ratio matrices that would crash or
// silently corrupt Verify/Simulate: the plan must carry one row per model
// segment, rectangular and non-empty, with non-negative finite entries
// summing to 1 per row.
func ValidateRatios(b [][]float64, segments int) error {
	if len(b) != segments {
		return fmt.Errorf("ratios have %d segments, the graph has %d", len(b), segments)
	}
	m := 0
	for k, row := range b {
		if k == 0 {
			m = len(row)
		}
		if len(row) == 0 || len(row) != m {
			return fmt.Errorf("ratios row %d has %d devices, want %d", k, len(row), m)
		}
		sum := 0.0
		for j, v := range row {
			if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("ratios[%d][%d] = %v is not a valid ratio", k, j, v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-6 {
			return fmt.Errorf("ratios row %d sums to %v, want 1", k, sum)
		}
	}
	return nil
}
