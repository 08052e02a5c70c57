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

// Signatures allocates only its result: the roles are tabulated in it and
// hashing a node allocates nothing. StructuralDiff's allocations are a fixed
// seven per diff (two signature sequences, two chunk lists, the LCS table,
// the runs and the Diff), never one per node or chunk.
func TestSignaturesAllocations(t *testing.T) {
	g := models.Build(models.ModelBERTBase, 8)
	if n := testing.AllocsPerRun(5, func() { graph.Signatures(g) }); n != 1 {
		t.Errorf("Signatures made %.0f allocations, want 1 (its result)", n)
	}
	wide := models.Training(models.VGG19OneWider(64, 224, 10))
	base := models.Training(models.VGG19(64, 224, 10))
	if n := testing.AllocsPerRun(5, func() { graph.StructuralDiff(base, wide) }); n != 7 {
		t.Errorf("StructuralDiff made %.0f allocations, want 7", n)
	}
}

// Fingerprint allocates only its string: the gradient pairs sort in a stack
// buffer on the paper's models (VGG19 19 gradients, BERT-Base 49).
func TestFingerprintAllocations(t *testing.T) {
	for _, m := range []models.PaperModel{models.ModelVGG19, models.ModelBERTBase} {
		g := models.Build(m, 8)
		if n := testing.AllocsPerRun(5, func() { graph.Fingerprint(g) }); n != 1 {
			t.Errorf("%s: Fingerprint made %.0f allocations, want 1 (its string)", m, n)
		}
	}
}
