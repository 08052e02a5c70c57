// Structural fingerprinting of graphs, shared by the plan serializer (which
// refuses to bind a plan to a graph it was not synthesized for) and the serve
// cache (which keys synthesized plans by graph content).

package graph

import "hap/internal/fingerprint"

// fingerprintPairs is how many gradient pairs Fingerprint sorts without a
// heap allocation: BERT-Base has 49.
const fingerprintPairs = 64

// Fingerprint returns a stable structural hash of the graph: node kinds,
// edges, shapes, numeric attributes (scale factors, flop overrides, batch
// axes), loss and gradient designations, and the segment assignment. Two
// graphs with equal fingerprints synthesize, cost, and execute identically;
// node names are labels only and do not participate. The hash is
// deterministic across processes (no map iteration order leaks in).
func Fingerprint(g *Graph) string {
	h := fingerprint.New()
	h.Int(len(g.Nodes))
	for i := range g.Nodes {
		n := g.Node(NodeID(i))
		h.Int(int(n.Kind))
		h.Int(len(n.Inputs))
		for _, u := range n.Inputs {
			h.Int(int(u))
		}
		h.Int(len(n.Shape))
		for _, d := range n.Shape {
			h.Int(d)
		}
		h.Float(n.ScaleFactor)
		h.Float(n.FlopsPerSample)
		h.Int(n.BatchDim)
	}
	h.Int(int(g.Loss))
	h.Int(len(g.Params))
	for _, p := range g.Params {
		h.Int(int(p))
	}
	// All gradient designations, in sorted order — including any whose key
	// is not a registered parameter (a hand-written wire graph can carry
	// those, and they change what the plan must materialize).
	// The pairs sort in a stack buffer; only a graph with more gradients
	// than it holds sorts on the heap.
	var buf [fingerprintPairs][2]int
	h.Int(len(g.Grads))
	for _, pr := range sortPairsInto(buf[:], g.Grads) {
		h.Int(pr[0])
		h.Int(pr[1])
	}
	h.Int(len(g.SegmentOf))
	for _, s := range g.SegmentOf {
		h.Int(s)
	}
	return h.Sum()
}
