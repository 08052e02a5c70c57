// A JSON rendering of distributed programs, write-only: nothing reads it
// back, the binary form (binary.go) is a plan's one wire encoding. It stays
// as a textual oracle for tests and as the per-layer benchmark's measure of
// what the binary form saves. Op and collective kinds are written by name
// (not ordinal), like the binary form's name tables.

package dist

import (
	"encoding/json"
	"fmt"
	"io"

	"hap/internal/graph"
)

// formatVersion is bumped on incompatible changes to the serialized forms
// (binaryVersion follows it). Version 2 widened the graph fingerprint (now
// graph.Fingerprint) to cover numeric node attributes — scale factors, flop
// overrides, batch axes.
const formatVersion = 2

// programJSON is the JSON rendering of a Program.
type programJSON struct {
	Version   int         `json:"version"`
	Nodes     int         `json:"nodes"`      // graph size
	GraphHash string      `json:"graph_hash"` // graph.Fingerprint of the graph
	Instrs    []instrJSON `json:"instrs"`
}

// instrJSON is one serialized instruction: computations carry op/shard_dim/
// flops_scaled (inputs are not written: Validate holds them to the graph
// node's), communications carry comm/dim/dim2.
type instrJSON struct {
	Ref         int    `json:"ref"`
	Op          string `json:"op,omitempty"`
	ShardDim    *int   `json:"shard_dim,omitempty"`
	FlopsScaled bool   `json:"flops_scaled,omitempty"`
	Comm        string `json:"comm,omitempty"`
	Dim         int    `json:"dim,omitempty"`
	Dim2        int    `json:"dim2,omitempty"`
}

// Encode writes the program as indented (diffable) JSON, carrying the same
// node count and graph_hash (graph.Fingerprint) the binary form binds by.
// Nothing reads it back: DecodeBinary is the one program decoder.
func (p *Program) Encode(w io.Writer) error {
	if p.Graph == nil {
		return fmt.Errorf("dist: encode: program has no graph")
	}
	pj := programJSON{
		Version: formatVersion, Nodes: p.Graph.NumNodes(),
		GraphHash: graph.Fingerprint(p.Graph),
	}
	for i := range p.Instrs {
		in := &p.Instrs[i]
		if in.IsComm {
			pj.Instrs = append(pj.Instrs, instrJSON{
				Ref: int(in.Ref), Comm: in.Coll.String(), Dim: in.Dim, Dim2: in.Dim2,
			})
			continue
		}
		sd := in.ShardDim
		pj.Instrs = append(pj.Instrs, instrJSON{
			Ref: int(in.Ref), Op: in.Op.String(), ShardDim: &sd, FlopsScaled: in.FlopsScaled,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(pj)
}
