// Package planwire is the only writer (Append) and reader (ReadBinary) of a
// plan's one wire form, the binary payload the plan store, its disk mirror,
// the fleet and every /v1/synthesize answer carry. The hap package wraps
// both; the daemon calls them on the bytes it holds, and the client calls
// ReadBinary so it can hand over the graph fingerprint it already computed
// for the plan's cache key, sparing the binding check a second hash of the
// same graph.
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
//
// The trailer is written and read without reflection: appendTrailer writes
// the bytes json.Marshal would, and the reader runs on the tokenizer the
// request readers share (package wirejson). The reader
// takes every spelling encoding/json takes into Trailer but three, which it
// refuses with an error naming the member: a member named twice ("cost"
// twice), a name equal to a member's only under case folding ("Cost"), and
// null as an element of ratios, of one of its rows, or of segment_of.
// encoding/json would keep the last of two values, fill Cost from "Cost"
// and read a null element as 0; no writer of the payload spells any of them.
package planwire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"strconv"

	"hap/internal/dist"
	"hap/internal/graph"
	"hap/internal/wirejson"
)

// Trailer is the JSON metadata appended after the binary program: what
// dist.EncodeBinary does not carry. The graph travels separately — the
// reader re-binds the program to a caller-provided graph. SegmentOf is
// carried because planning with Segments > 1 assigns it internally: a fresh
// process rebuilding the model graph has no way to reproduce it.
type Trailer struct {
	Ratios    [][]float64 `json:"ratios"`
	SegmentOf []int       `json:"segment_of,omitempty"`
	Cost      float64     `json:"cost"`
}

// Magic terminates every binary plan payload.
var Magic = [4]byte{'H', 'A', 'P', 'T'}

// Append appends the binary payload of a plan — prog, its sharding ratios
// and its modeled cost — to b. The segment assignment travels from
// prog.Graph.
func Append(b []byte, prog *dist.Program, ratios [][]float64, cost float64) ([]byte, error) {
	b, err := prog.AppendBinary(b)
	if err != nil {
		return b, err
	}
	start := len(b)
	b, err = appendTrailer(b, Trailer{Ratios: ratios, SegmentOf: prog.Graph.SegmentOf, Cost: cost})
	if err != nil {
		return b[:start], err
	}
	b = binary.BigEndian.AppendUint32(b, uint32(len(b)-start))
	return append(b, Magic[:]...), nil
}

// appendTrailer appends tr's JSON, byte for byte what json.Marshal(tr)
// writes, and refuses what it refuses: a NaN or infinite ratio or cost.
func appendTrailer(b []byte, tr Trailer) ([]byte, error) {
	var ok bool
	b = append(b, `{"ratios":`...)
	if tr.Ratios == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, row := range tr.Ratios {
			if i > 0 {
				b = append(b, ',')
			}
			if row == nil {
				b = append(b, "null"...)
				continue
			}
			b = append(b, '[')
			for j, v := range row {
				if j > 0 {
					b = append(b, ',')
				}
				if b, ok = wirejson.AppendFloat(b, v); !ok {
					return b, fmt.Errorf("trailer: ratios[%d][%d] = %v is not a JSON number", i, j, v)
				}
			}
			b = append(b, ']')
		}
		b = append(b, ']')
	}
	if len(tr.SegmentOf) > 0 {
		b = append(b, `,"segment_of":[`...)
		for i, s := range tr.SegmentOf {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(s), 10)
		}
		b = append(b, ']')
	}
	b = append(b, `,"cost":`...)
	if b, ok = wirejson.AppendFloat(b, tr.Cost); !ok {
		return b, fmt.Errorf("trailer: cost %v is not a JSON number", tr.Cost)
	}
	return append(b, '}'), nil
}

// ReadBinary loads a plan from a binary payload held in memory, binding its
// program to g (which must be the graph the plan was synthesized for) or to
// a copy of g carrying the plan's segment assignment, and validating it. fp,
// when not empty, must be graph.Fingerprint(g).
func ReadBinary(data []byte, g *graph.Graph, fp string) (*dist.Program, [][]float64, float64, error) {
	fail := func(err error) (*dist.Program, [][]float64, float64, error) {
		return nil, nil, 0, fmt.Errorf("hap: read binary plan: %w", err)
	}
	progEnd, err := frame(data)
	if err != nil {
		return fail(err)
	}
	tr, err := readTrailer(data[progEnd : len(data)-8])
	if err != nil {
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

var trailerKeys = []string{"ratios", "segment_of", "cost"}

// readTrailer reads the trailer JSON, which must be the whole of data, into
// a Trailer as encoding/json would, but for the spellings the package doc
// names.
func readTrailer(data []byte) (Trailer, error) {
	var tr Trailer
	r := wirejson.Reader{Data: data}
	ok := r.Object(trailerKeys, func(k int) bool {
		switch trailerKeys[k] {
		case "ratios":
			tr.Ratios = [][]float64{}
			return r.Array("ratios", func() bool {
				row := []float64{}
				ok := r.Array("ratios", func() bool {
					v, ok := r.Float()
					row = append(row, v)
					return ok
				})
				tr.Ratios = append(tr.Ratios, row)
				return ok
			})
		case "segment_of":
			tr.SegmentOf = []int{}
			return r.Array("segment_of", func() bool {
				v, ok := r.Int()
				tr.SegmentOf = append(tr.SegmentOf, v)
				return ok
			})
		default: // "cost"
			var ok bool
			tr.Cost, ok = r.Float()
			return ok
		}
	})
	if ok && r.I != len(data) {
		r.Fail(fmt.Errorf("invalid character %q after top-level value", data[r.I]))
	}
	if r.Err != nil {
		return Trailer{}, r.Err
	}
	return tr, nil
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
