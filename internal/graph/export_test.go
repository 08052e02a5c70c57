package graph

import (
	"bytes"
	"encoding/json"
	"fmt"

	"hap/internal/tensor"
)

// graphJSON is the wire form as a struct for encoding/json: the oracle the
// writers' bytes and the one-pass reader's answers are held to.
type graphJSON struct {
	Version int        `json:"version"`
	Nodes   []nodeJSON `json:"nodes"`
	// Loss is a pointer so an omitted field decodes as "no loss" (-1), not
	// as node 0.
	Loss         *int     `json:"loss"`
	Params       []int    `json:"params,omitempty"`
	Grads        [][2]int `json:"grads,omitempty"`
	ForwardCount int      `json:"forward_count,omitempty"`
	PrimalOf     [][2]int `json:"primal_of,omitempty"`
	SegmentOf    []int    `json:"segment_of,omitempty"`
}

type nodeJSON struct {
	Op             string  `json:"op"`
	Inputs         []int   `json:"inputs,omitempty"`
	Shape          []int   `json:"shape"`
	Name           string  `json:"name,omitempty"`
	Scale          float64 `json:"scale,omitempty"`
	FlopsPerSample float64 `json:"flops_per_sample,omitempty"`
	// BatchDim is a pointer for the same reason Loss is.
	BatchDim *int `json:"batch_dim"`
}

// CountOps is the count of "op" that presizes DecodeFrom's node slice.
var CountOps = countOps

// DecodeReference decodes data with encoding/json into graphJSON and builds
// the graph from it under the checks DecodeBytes runs: the oracle the
// one-pass reader is held to.
func DecodeReference(data []byte) (*Graph, error) {
	var gj graphJSON
	if err := json.NewDecoder(bytes.NewReader(data)).Decode(&gj); err != nil {
		return nil, fmt.Errorf("graph: decode: %w", err)
	}
	gf := graphFields{Version: gj.Version, Loss: -1, Params: gj.Params, Grads: gj.Grads,
		ForwardCount: gj.ForwardCount, PrimalOf: gj.PrimalOf, SegmentOf: gj.SegmentOf}
	if gj.Loss != nil {
		gf.Loss = *gj.Loss
	}
	g := New()
	for i, nj := range gj.Nodes {
		kind, ok := ParseOpKind(nj.Op)
		if !ok {
			return nil, fmt.Errorf("graph: decode: node %d: unknown op %q", i, nj.Op)
		}
		bd := -1
		if nj.BatchDim != nil {
			bd = *nj.BatchDim
		}
		node := Node{
			ID:             NodeID(i),
			Kind:           kind,
			Shape:          tensor.Shape(nj.Shape),
			Name:           nj.Name,
			ScaleFactor:    positiveZero(nj.Scale),
			FlopsPerSample: positiveZero(nj.FlopsPerSample),
			BatchDim:       bd,
		}
		for _, u := range nj.Inputs {
			node.Inputs = append(node.Inputs, NodeID(u))
		}
		g.Nodes = append(g.Nodes, node)
	}
	if err := gf.finish(g); err != nil {
		return nil, err
	}
	return g, nil
}

// WireOracle returns the bytes encoding/json writes for g's graphJSON:
// compact (json.Marshal) and indented (a json.Encoder with SetIndent("",
// "  "), as Encode once wrote them). AppendJSON and Encode must match them.
func WireOracle(g *Graph) (compact, indented []byte, err error) {
	gj := wireForm(g)
	if compact, err = json.Marshal(gj); err != nil {
		return nil, nil, err
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(gj); err != nil {
		return nil, nil, err
	}
	return compact, buf.Bytes(), nil
}

// wireForm builds g's graphJSON the way Encode did before it wrote the
// bytes itself.
func wireForm(g *Graph) graphJSON {
	loss := int(g.Loss)
	gj := graphJSON{
		Version:      wireVersion,
		Loss:         &loss,
		Grads:        sortedPairs(g.Grads),
		ForwardCount: g.ForwardCount,
		PrimalOf:     sortedPairs(g.PrimalOf),
		SegmentOf:    g.SegmentOf,
	}
	for _, p := range g.Params {
		gj.Params = append(gj.Params, int(p))
	}
	for i := range g.Nodes {
		n := g.Node(NodeID(i))
		bd := n.BatchDim
		nj := nodeJSON{
			Op:             n.Kind.String(),
			Shape:          []int(n.Shape),
			Name:           n.Name,
			Scale:          n.ScaleFactor,
			FlopsPerSample: n.FlopsPerSample,
			BatchDim:       &bd,
		}
		for _, u := range n.Inputs {
			nj.Inputs = append(nj.Inputs, int(u))
		}
		gj.Nodes = append(gj.Nodes, nj)
	}
	return gj
}
