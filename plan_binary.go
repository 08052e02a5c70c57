// Binary plan serialization for the serving path: the program travels as
// dist.EncodeBinary bytes (~20× smaller than JSON at model scale), followed
// by a small JSON trailer carrying the plan metadata the program format does
// not cover (sharding ratios, segment assignment, modeled cost).
//
// Layout:
//
//	EncodeBinary(program) · trailer JSON · uint32 trailer length (BE) · "HAPT"
//
// The program section comes first and is self-delimiting, so a reader that
// only wants the program can hand the whole payload to dist.DecodeBinary —
// trailing bytes are ignored. ReadProgramBinary locates the trailer from the
// fixed-size suffix and reconstructs the full Plan.

package hap

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"

	"hap/internal/dist"
)

// binPlanMagic terminates every binary plan payload.
var binPlanMagic = [4]byte{'H', 'A', 'P', 'T'}

// planTrailer is the JSON metadata appended after the binary program — the
// planJSON fields that EncodeBinary does not carry.
type planTrailer struct {
	Ratios    [][]float64 `json:"ratios"`
	SegmentOf []int       `json:"segment_of,omitempty"`
	Cost      float64     `json:"cost"`
}

// WriteProgramBinary serializes the plan in the compact binary wire form —
// the serving counterpart of WriteProgram. The payload's program section
// decodes directly with dist.DecodeBinary.
func (p *Plan) WriteProgramBinary(w io.Writer) error {
	var buf bytes.Buffer
	if err := p.Program.EncodeBinary(&buf); err != nil {
		return err
	}
	tr, err := json.Marshal(planTrailer{
		Ratios:    p.Ratios,
		SegmentOf: p.Program.Graph.SegmentOf,
		Cost:      p.Cost,
	})
	if err != nil {
		return err
	}
	buf.Write(tr)
	var suffix [8]byte
	binary.BigEndian.PutUint32(suffix[:4], uint32(len(tr)))
	copy(suffix[4:], binPlanMagic[:])
	buf.Write(suffix[:])
	_, err = w.Write(buf.Bytes())
	return err
}

// ReadProgramBinary loads a plan written by WriteProgramBinary, binding its
// program to g — the same contract as ReadProgram, including adopting the
// plan's segment assignment onto g and leaving g untouched on failure.
func ReadProgramBinary(r io.Reader, g *Graph) (*Plan, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("hap: read binary plan: %w", err)
	}
	if len(data) < 8 || !bytes.Equal(data[len(data)-4:], binPlanMagic[:]) {
		return nil, fmt.Errorf("hap: read binary plan: missing %q suffix (not written by WriteProgramBinary?)", binPlanMagic[:])
	}
	// The length field is untrusted: compare in uint64 so a huge value cannot
	// wrap through int conversion on 32-bit platforms and dodge the check.
	tlen32 := binary.BigEndian.Uint32(data[len(data)-8 : len(data)-4])
	if uint64(tlen32)+8 > uint64(len(data)) {
		return nil, fmt.Errorf("hap: read binary plan: trailer length %d exceeds the %d-byte payload", tlen32, len(data))
	}
	progEnd := len(data) - 8 - int(tlen32)
	var tr planTrailer
	if err := json.Unmarshal(data[progEnd:len(data)-8], &tr); err != nil {
		return nil, fmt.Errorf("hap: read binary plan: trailer: %w", err)
	}
	if len(tr.SegmentOf) != 0 && len(tr.SegmentOf) != g.NumNodes() {
		return nil, fmt.Errorf("hap: read binary plan: segment assignment covers %d nodes, the graph has %d", len(tr.SegmentOf), g.NumNodes())
	}
	// Adopt the segment assignment only if the whole load succeeds (see
	// ReadProgram): the program's embedded fingerprint covers SegmentOf.
	prevSegments := g.SegmentOf
	g.SegmentOf = tr.SegmentOf
	prog, err := dist.DecodeBinary(bytes.NewReader(data[:progEnd]), g)
	if err != nil {
		g.SegmentOf = prevSegments
		return nil, fmt.Errorf("hap: read binary plan: %w", err)
	}
	if err := validateRatios(tr.Ratios, g.NumSegments()); err != nil {
		g.SegmentOf = prevSegments
		return nil, fmt.Errorf("hap: read binary plan: %w", err)
	}
	return &Plan{Program: prog, Ratios: tr.Ratios, Cost: tr.Cost}, nil
}
