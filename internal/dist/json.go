// Stable JSON serialization of distributed programs, so plans can be
// exported, diffed and re-loaded. Op and collective kinds are serialized by
// name (not ordinal), keeping the format robust to enum renumbering; the
// graph travels separately — Decode re-binds the instruction stream to a
// caller-provided graph and validates the result.

package dist

import (
	"encoding/json"
	"fmt"
	"io"

	"hap/internal/collective"
	"hap/internal/graph"
)

// formatVersion is bumped on incompatible changes to the serialized form.
// Version 2 widened the graph fingerprint (now graph.Fingerprint) to cover
// numeric node attributes — scale factors, flop overrides, batch axes.
const formatVersion = 2

// programJSON is the on-disk form of a Program.
type programJSON struct {
	Version   int         `json:"version"`
	Nodes     int         `json:"nodes"`      // graph size, for a readable mismatch message
	GraphHash string      `json:"graph_hash"` // structural fingerprint for binding checks
	Instrs    []instrJSON `json:"instrs"`
}

// instrJSON is one serialized instruction: computations carry op/shard_dim/
// flops_scaled (inputs are rebuilt from the binding graph, which Validate
// guarantees they mirror), communications carry comm/dim/dim2.
type instrJSON struct {
	Ref         int    `json:"ref"`
	Op          string `json:"op,omitempty"`
	ShardDim    *int   `json:"shard_dim,omitempty"`
	FlopsScaled bool   `json:"flops_scaled,omitempty"`
	Comm        string `json:"comm,omitempty"`
	Dim         int    `json:"dim,omitempty"`
	Dim2        int    `json:"dim2,omitempty"`
}

// Encode writes the program as indented (diffable) JSON. The embedded
// graph_hash (graph.Fingerprint) is the binding check: a plan cannot be
// silently re-bound to a graph it was not synthesized for (same topology with
// different shapes costs and shards differently).
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

// Decode reads a program written by Encode, binds it to g, and validates it.
func Decode(r io.Reader, g *graph.Graph) (*Program, error) {
	return DecodeWithFingerprint(r, g, "")
}

// DecodeWithFingerprint is Decode for a caller that already holds
// graph.Fingerprint(g) as g stands: fp, when not empty, is what the binding
// check compares against instead of hashing g again.
func DecodeWithFingerprint(r io.Reader, g *graph.Graph, fp string) (*Program, error) {
	var pj programJSON
	if err := json.NewDecoder(r).Decode(&pj); err != nil {
		return nil, fmt.Errorf("dist: decode: %w", err)
	}
	if pj.Version != formatVersion {
		return nil, fmt.Errorf("dist: decode: unsupported program version %d (want %d)", pj.Version, formatVersion)
	}
	if g == nil {
		return nil, fmt.Errorf("dist: decode: no graph to bind the program to")
	}
	if err := checkBinding(g, uint64(pj.Nodes), pj.GraphHash, fp); err != nil {
		return nil, fmt.Errorf("dist: decode: %w", err)
	}
	p := &Program{Graph: g}
	for i, ij := range pj.Instrs {
		if ij.Comm != "" {
			k, ok := collective.ParseKind(ij.Comm)
			if !ok {
				return nil, fmt.Errorf("dist: decode: instr %d: unknown collective %q", i, ij.Comm)
			}
			p.Instrs = append(p.Instrs, Comm(graph.NodeID(ij.Ref), k, ij.Dim, ij.Dim2))
			continue
		}
		op, ok := graph.ParseOpKind(ij.Op)
		if !ok {
			return nil, fmt.Errorf("dist: decode: instr %d: unknown op %q", i, ij.Op)
		}
		in := Instruction{Ref: graph.NodeID(ij.Ref), Op: op, ShardDim: -1, FlopsScaled: ij.FlopsScaled}
		if ij.ShardDim != nil {
			in.ShardDim = *ij.ShardDim
		}
		p.Instrs = append(p.Instrs, in)
	}
	p.bindInputs()
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("dist: decode: %w", err)
	}
	return p, nil
}

// checkBinding is the plan→graph binding check of both wire forms: the
// program's node count and graph hash against g's. fp is
// graph.Fingerprint(g) when the caller holds it, "" to compute it here.
func checkBinding(g *graph.Graph, nodes uint64, hash, fp string) error {
	if nodes != uint64(g.NumNodes()) {
		return fmt.Errorf("program was synthesized for a %d-node graph, binding graph has %d", nodes, g.NumNodes())
	}
	if fp == "" {
		fp = graph.Fingerprint(g)
	}
	if hash != fp {
		return fmt.Errorf("graph fingerprint mismatch (program %s, binding graph %s): the plan was synthesized for a structurally different graph", hash, fp)
	}
	return nil
}

// bindInputs gives every computation a copy of its graph node's input list
// (inputs are not serialized: Validate holds them to the node's anyway), all
// copies carved from one allocation. Leaf loaders get none, and so does a
// reference outside the graph, which Validate rejects.
func (p *Program) bindInputs() {
	g := p.Graph
	bound := func(in *Instruction) []graph.NodeID {
		if in.IsComm || in.Ref < 0 || int(in.Ref) >= g.NumNodes() || in.Op.IsLeaf() {
			return nil
		}
		return g.Node(in.Ref).Inputs
	}
	n := 0
	for i := range p.Instrs {
		n += len(bound(&p.Instrs[i]))
	}
	slab := make([]graph.NodeID, n)
	for i := range p.Instrs {
		if k := copy(slab, bound(&p.Instrs[i])); k > 0 {
			p.Instrs[i].Inputs = slab[:k:k]
			slab = slab[k:]
		}
	}
}
