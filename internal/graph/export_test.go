package graph

import (
	"bytes"
	"encoding/json"
)

// DecodeReference is DecodeBytes's encoding/json path alone: the oracle the
// one-pass reader is held to.
var DecodeReference = decodeReflect

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
