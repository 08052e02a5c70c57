package graph_test

import (
	"testing"

	"hap/internal/graph"
	"hap/internal/models"
)

// Signatures tabulates the parameter and gradient roles once per graph; each
// entry must still be the node's NodeSignature, which scans them per node.
func TestSignaturesMatchNodeSignature(t *testing.T) {
	for _, m := range []models.PaperModel{models.ModelVGG19, models.ModelBERTBase, models.ModelBERTMoE} {
		g := models.Build(m, 8)
		if len(g.Params) == 0 || len(g.Grads) == 0 {
			t.Fatalf("%s: no parameters or gradients to tabulate", m)
		}
		sigs := graph.Signatures(g)
		if len(sigs) != g.NumNodes() {
			t.Fatalf("%s: %d signatures for %d nodes", m, len(sigs), g.NumNodes())
		}
		for i, s := range sigs {
			if want := graph.NodeSignature(g, graph.NodeID(i)); s != want {
				t.Errorf("%s: Signatures[%d] = %x, NodeSignature = %x", m, i, s, want)
			}
		}
	}
}
