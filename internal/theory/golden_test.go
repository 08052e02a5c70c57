package theory

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"runtime"
	"testing"

	"hap/internal/graph"
	"hap/internal/models"
)

// goldenModels are the graphs whose theories TestTheoryGolden and
// TestTheoryAllocationPin hold: a small MLP and the paper's four models at
// eight devices.
func goldenModels() []struct {
	name string
	g    *graph.Graph
} {
	return []struct {
		name string
		g    *graph.Graph
	}{
		{"MLP", models.Training(models.MLP(64, 32, 48, 8))},
		{"VGG19", models.Build(models.ModelVGG19, 8)},
		{"ViT", models.Build(models.ModelViT, 8)},
		{"BERT", models.Build(models.ModelBERTBase, 8)},
		{"BERT-MoE", models.Build(models.ModelBERTMoE, 8)},
	}
}

// theoryDigest renders everything a search reads from a theory: every
// triple's node, Pre, LeafPre, Out, FlopsScaled and instruction in ByNode
// order, then Consumers, Required, Outputs and IsWanted's answer for every
// property a tensor can carry (and one Gather dimension past its rank).
func theoryDigest(th *Theory) string {
	h := sha256.New()
	props := func(h hash.Hash, ps []Property) {
		fmt.Fprintf(h, " %d[", len(ps))
		for _, p := range ps {
			fmt.Fprintf(h, "%d:%d:%d ", p.Ref, p.Kind, p.Dim)
		}
		fmt.Fprint(h, "]")
	}
	for id, triples := range th.ByNode {
		fmt.Fprintf(h, "n%d %d\n", id, len(triples))
		for _, tr := range triples {
			fmt.Fprintf(h, "t%d", tr.Node)
			props(h, tr.Pre)
			props(h, tr.LeafPre)
			fmt.Fprintf(h, " %d:%d:%d %t", tr.Out.Ref, tr.Out.Kind, tr.Out.Dim, tr.FlopsScaled)
			in := tr.Instr(th.Graph)
			fmt.Fprintf(h, " %d %d %v %d %t %t %d %d %d\n",
				in.Ref, in.Op, in.Inputs, in.ShardDim, in.FlopsScaled, in.IsComm, in.Coll, in.Dim, in.Dim2)
		}
	}
	fmt.Fprintf(h, "%v\n%v\n%v\n", th.Consumers, th.Required, th.Outputs)
	for i := range th.Graph.Nodes {
		id := graph.NodeID(i)
		rank := len(th.Graph.Node(id).Shape)
		fmt.Fprintf(h, "w%d %t %t", id, th.IsWanted(Id(id)), th.IsWanted(Pending(id)))
		for d := 0; d <= rank; d++ {
			fmt.Fprintf(h, " %t", th.IsWanted(Shard(id, d)))
		}
		fmt.Fprintln(h)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestTheoryGolden holds the theory New derives, byte for byte: the digests
// were generated before New moved to slabs and a dense wanted mask, and any
// change to a rule, to the order of triples or to an instruction moves one.
func TestTheoryGolden(t *testing.T) {
	want := map[string]string{
		"MLP":      "47b2b4272c8a3bd7b1736ec307ee4bc5b4cdb37169a56c2f12482e76e8415c87",
		"VGG19":    "1119c015f21ba8db4c2b59ea3d9e95857450076f6a6f8546feed2dfd24de7ca9",
		"ViT":      "2d5de6c897041efc8ba15fc570e884c8532a417b78d49ccc852b3c588c7c49d8",
		"BERT":     "cfb16af160a32f09a6bc44d37176022989736209845fdce699982b0730b29484",
		"BERT-MoE": "b8e521be9b93d44c923dd4d664df5def7068c45f27e16b6778434ac01ca5ee0e",
	}
	for _, m := range goldenModels() {
		got := theoryDigest(New(m.g))
		t.Logf("%s: %s", m.name, got)
		if w, ok := want[m.name]; !ok || got != w {
			t.Errorf("%s theory digest = %s, want %s", m.name, got, w)
		}
	}
}

// theoryAllocs is what New allocates for any graph: the Theory, ByNode,
// Required, Outputs, the wanted bitset, Consumers' index, counts and backing
// array, and one slab each of triples, triple pointers, properties and
// instruction inputs.
const theoryAllocs = 12

// TestTheoryAllocationPin holds what New allocates per graph: an exact
// count that does not grow with the model, and bytes pinned per model
// (they repeat to a fraction of a KiB, so 2 % is slack enough).
// Before the slabs New made about five allocations per triple (a Triple,
// its Pre and LeafPre, a copied Inputs, a []Property literal, a Wanted map
// insert): 259 / 1 719 / 4 585 / 6 808 / 7 564 allocations and 15.9 /
// 103.6 / 276.5 / 436.4 / 470.4 KiB for the rows below.
func TestTheoryAllocationPin(t *testing.T) {
	pinKiB := map[string]float64{"MLP": 11.1, "VGG19": 69.7, "ViT": 199.3, "BERT": 292.1, "BERT-MoE": 317.8}
	for _, m := range goldenModels() {
		allocs := testing.AllocsPerRun(3, func() { New(m.g) })
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < 3; i++ {
			New(m.g)
		}
		runtime.ReadMemStats(&after)
		kib := float64(after.TotalAlloc-before.TotalAlloc) / 3 / 1024
		t.Logf("%s: %d nodes, %.0f allocs, %.1f KiB (pinned %.1f)", m.name, m.g.NumNodes(), allocs, kib, pinKiB[m.name])
		if allocs != theoryAllocs {
			t.Errorf("%s: New made %.0f allocations, want %d", m.name, allocs, theoryAllocs)
		}
		if limit := 1.02 * pinKiB[m.name]; kib > limit {
			t.Errorf("%s: New allocated %.1f KiB, want at most %.1f (pinned + 2%%)", m.name, kib, limit)
		}
	}
}
