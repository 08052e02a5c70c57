// Binary plan serialization for the serving path: the program travels as
// dist.EncodeBinary bytes (~20× smaller than JSON at model scale), followed
// by a small JSON trailer carrying the plan metadata the program format does
// not cover (sharding ratios, segment assignment, modeled cost). The layout
// is documented, and read, in internal/planwire.

package hap

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"

	"hap/internal/planwire"
)

// WriteProgramBinary serializes the plan in the compact binary wire form —
// the serving counterpart of WriteProgram. The payload's program section
// decodes directly with dist.DecodeBinary.
func (p *Plan) WriteProgramBinary(w io.Writer) error {
	var buf bytes.Buffer
	if err := p.Program.EncodeBinary(&buf); err != nil {
		return err
	}
	tr, err := json.Marshal(planwire.Trailer{
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
	copy(suffix[4:], planwire.Magic[:])
	buf.Write(suffix[:])
	_, err = w.Write(buf.Bytes())
	return err
}

// ReadProgramBinary loads a plan written by WriteProgramBinary, binding its
// program to g — the same contract as ReadProgram: g is never written, and
// the program binds to a shallow copy of g when the plan's segment
// assignment is not the one g carries.
func ReadProgramBinary(r io.Reader, g *Graph) (*Plan, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("hap: read binary plan: %w", err)
	}
	prog, ratios, cost, err := planwire.ReadBinary(data, g, "")
	if err != nil {
		return nil, err
	}
	return &Plan{Program: prog, Ratios: ratios, Cost: cost}, nil
}
