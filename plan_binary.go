// Plan serialization: a plan has one serialized form, the binary payload the
// plan store, its disk mirror, the fleet, every /v1/synthesize answer and
// hap-synth -out carry. The program travels as dist.EncodeBinary bytes,
// followed by a small JSON trailer carrying the plan metadata the program
// format does not cover (sharding ratios, segment assignment, modeled cost).
// The layout is documented, and read, in internal/planwire. The form a
// person reads is the disassembly, Program.String().

package hap

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"

	"hap/internal/planwire"
)

// WriteProgramBinary serializes the plan — the SPMD program, the sharding
// ratios, the segment assignment and the modeled cost — as the binary
// payload, so plans can be exported, cached and re-loaded without re-running
// synthesis. The payload's program section decodes directly with
// dist.DecodeBinary.
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
// program to g (which must be the graph the plan was synthesized for: the
// node count and graph fingerprint are checked) and validating it
// structurally. g is never written, whether the read succeeds or not: the
// program binds to g when g carries the plan's segment assignment, and to a
// shallow copy of g carrying it otherwise, so plans produced with
// Options.Segments > 1 re-load against a freshly built graph. The returned
// Program.Graph is the graph it bound to.
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
