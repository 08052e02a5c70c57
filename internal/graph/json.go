// Stable JSON serialization of single-device graphs — the wire format a
// hap-serve client ships its model in. Op kinds travel by name (not ordinal)
// so the format survives enum renumbering; Decode validates the result so a
// malformed request cannot crash later pipeline stages. Everything synthesis
// depends on is carried: shapes, numeric attributes, the loss and gradient
// designations, and the autodiff bookkeeping (ForwardCount, PrimalOf) that
// the segmenter consumes.

package graph

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"hap/internal/tensor"
)

// wireVersion is bumped on incompatible changes to the serialized graph form.
const wireVersion = 1

// graphJSON is the on-wire form of a Graph. Map-valued fields (Grads,
// PrimalOf) travel as id-sorted pairs so encoding is byte-deterministic.
type graphJSON struct {
	Version int        `json:"version"`
	Nodes   []nodeJSON `json:"nodes"`
	// Loss is a pointer so an omitted field decodes as "no loss" (-1), not
	// as node 0 — clients hand-write this format.
	Loss         *int     `json:"loss"`
	Params       []int    `json:"params,omitempty"`
	Grads        [][2]int `json:"grads,omitempty"` // [param, grad] pairs
	ForwardCount int      `json:"forward_count,omitempty"`
	PrimalOf     [][2]int `json:"primal_of,omitempty"` // [node, primal] pairs
	SegmentOf    []int    `json:"segment_of,omitempty"`
}

type nodeJSON struct {
	Op             string  `json:"op"`
	Inputs         []int   `json:"inputs,omitempty"`
	Shape          []int   `json:"shape"`
	Name           string  `json:"name,omitempty"`
	Scale          float64 `json:"scale,omitempty"`
	FlopsPerSample float64 `json:"flops_per_sample,omitempty"`
	// BatchDim is a pointer for the same reason Loss is: omitted must mean
	// "no batch axis" (-1), not axis 0.
	BatchDim *int `json:"batch_dim"`
}

// sortedPairs flattens an id→id map into key-sorted pairs.
func sortedPairs(m map[NodeID]NodeID) [][2]int {
	if len(m) == 0 {
		return nil
	}
	out := make([][2]int, 0, len(m))
	for k, v := range m {
		out = append(out, [2]int{int(k), int(v)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

// Encode writes the graph as indented (diffable, deterministic) JSON.
func (g *Graph) Encode(w io.Writer) error {
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
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(gj)
}

// Decode reads a graph written by Encode and validates it structurally, so
// downstream consumers (synthesizer, runtime) can assume well-formedness.
func Decode(r io.Reader) (*Graph, error) {
	var gj graphJSON
	if err := json.NewDecoder(r).Decode(&gj); err != nil {
		return nil, fmt.Errorf("graph: decode: %w", err)
	}
	if gj.Version != wireVersion {
		return nil, fmt.Errorf("graph: decode: unsupported graph version %d (want %d)", gj.Version, wireVersion)
	}
	g := New()
	n := len(gj.Nodes)
	inRange := func(id int) bool { return id >= 0 && id < n }
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
		for _, d := range node.Shape {
			if d < 0 {
				return nil, fmt.Errorf("graph: decode: node %d has negative dimension %d", i, d)
			}
		}
		if node.BatchDim < -1 {
			return nil, fmt.Errorf("graph: decode: node %d has batch_dim %d", i, node.BatchDim)
		}
		for _, u := range nj.Inputs {
			if !inRange(u) {
				return nil, fmt.Errorf("graph: decode: node %d references input %d of %d nodes", i, u, n)
			}
			node.Inputs = append(node.Inputs, NodeID(u))
		}
		g.Nodes = append(g.Nodes, node)
	}
	loss := -1
	if gj.Loss != nil {
		loss = *gj.Loss
	}
	if loss != -1 && !inRange(loss) {
		return nil, fmt.Errorf("graph: decode: loss %d of %d nodes", loss, n)
	}
	g.Loss = NodeID(loss)
	for _, p := range gj.Params {
		if !inRange(p) {
			return nil, fmt.Errorf("graph: decode: parameter %d of %d nodes", p, n)
		}
		g.Params = append(g.Params, NodeID(p))
	}
	for _, pr := range gj.Grads {
		if !inRange(pr[0]) || !inRange(pr[1]) {
			return nil, fmt.Errorf("graph: decode: gradient pair %v of %d nodes", pr, n)
		}
		g.Grads[NodeID(pr[0])] = NodeID(pr[1])
	}
	if gj.ForwardCount < 0 || gj.ForwardCount > n {
		return nil, fmt.Errorf("graph: decode: forward_count %d of %d nodes", gj.ForwardCount, n)
	}
	g.ForwardCount = gj.ForwardCount
	for _, pr := range gj.PrimalOf {
		if !inRange(pr[0]) || !inRange(pr[1]) {
			return nil, fmt.Errorf("graph: decode: primal pair %v of %d nodes", pr, n)
		}
		g.PrimalOf[NodeID(pr[0])] = NodeID(pr[1])
	}
	g.SegmentOf = gj.SegmentOf
	for _, s := range g.SegmentOf {
		if s < 0 {
			return nil, fmt.Errorf("graph: decode: negative segment %d", s)
		}
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("graph: decode: %w", err)
	}
	// Declared shapes must agree with what each op would actually produce:
	// synthesis rules and the numeric runtime trust them, and an
	// inconsistent shape (e.g. a scalar "softmax" of a matrix) panics deep
	// in the pipeline. Kinds without an inference rule (leaves, grad kinds
	// with explicit shapes) keep their declared shape.
	for i := range g.Nodes {
		n := &g.Nodes[i]
		if !inferableKinds[n.Kind] {
			continue
		}
		want, ok := g.tryInferShape(n)
		if !ok {
			return nil, fmt.Errorf("graph: decode: node %d (%v) has inconsistent input shapes", i, n.Kind)
		}
		if !n.Shape.Equal(want) {
			return nil, fmt.Errorf("graph: decode: node %d (%v) declares shape %v, op produces %v", i, n.Kind, n.Shape, want)
		}
	}
	return g, nil
}

// positiveZero maps -0 to 0. The wire spells both, Encode omits either, and
// Fingerprint hashes a float's bits: a kept sign would give one graph two
// cache keys, one before and one after a round trip.
func positiveZero(v float64) float64 {
	if v == 0 {
		return 0
	}
	return v
}

// inferableKinds are the op kinds inferShape has a rule for; for these a
// wire graph's declared shape is checked against the inferred one, and an
// inference panic means the inputs themselves are inconsistent.
var inferableKinds = map[OpKind]bool{
	MatMul: true, Transpose: true, Add: true, Mul: true, Scale: true,
	ReLU: true, Sigmoid: true, GeLU: true, Softmax: true, Sum: true,
	ReLUGrad: true, SigmoidGrad: true, GeLUGrad: true, SoftmaxGrad: true,
	Dispatch: true, ExpertMM: true, Combine: true,
}

// tryInferShape runs inferShape, converting its panics into ok=false.
func (g *Graph) tryInferShape(n *Node) (s tensor.Shape, ok bool) {
	defer func() {
		if recover() != nil {
			s, ok = nil, false
		}
	}()
	return g.inferShape(n), true
}
