package synth

import (
	"context"
	"fmt"
	"hash/fnv"
	"testing"

	"hap/internal/cluster"
	"hap/internal/cost"
	"hap/internal/dist"
	"hap/internal/graph"
	"hap/internal/models"
	"hap/internal/theory"
)

// goldenPlan pins one cold beam search at B⁽⁰⁾: the FNV-64a hash of
// Program.String() and the search's effort counters.
type goldenPlan struct {
	hash               string
	expansions, pushed int
}

// goldenPlans was generated at the commit before the merge sort lost its
// reflection swapper, commCand shrank to 16 bytes and state.key() started
// mixing whole words — when the merge was still slices.SortFunc. The beam's
// merge is an unstable sort on score alone, so which of several equal-score
// candidates survives is "the sort's deterministic permutation of the
// enumeration order" (DESIGN.md): any change to the sort (lazysort.go, the
// repository's own pdqsort replica — the toolchain's no longer matters), to
// the enumeration order or to the dedup set shows here first. On a mismatch
// the test logs the row as built now; replace a row only in a change that
// means to move plans and says so.
var goldenPlans = map[string]goldenPlan{
	"vgg19/het8": {"cd429a3184a8b45a", 6185, 9695},
	"vgg19/hom4": {"26995aacc5601384", 6186, 9675},
	"vit/het8":   {"7d6d9d557fe5e705", 12935, 17971},
	"vit/hom4":   {"946b993fbf02befa", 12887, 17748},
	"bert6/het8": {"7fe0ac8b797e4e54", 9745, 17212},
	"bert6/hom4": {"6eee2314cfd988d8", 9744, 18215},
	"moe4/het8":  {"1709726f526dc27a", 7751, 12656},
	"moe4/hom4":  {"bc223561bffd735e", 7748, 12942},
}

// goldenSeeded pins the warm near-miss search (seededInput): VGG19OneWider on
// het8 seeded from the base VGG19's plan, in automatic mode. What it holds is
// the narrow seeded beam: the same graph searched cold reads 6 185
// expansions, so a seed that is dropped or falls back to cold, or a seeded
// beam that widens, fails the row by its counts, not by a timing margin.
var goldenSeeded = goldenPlan{"f6cfc2036783d828", 469, 487}

// goldenInputs mirrors the benchmark's plan_cold models (bench/inputs.go) on
// the paper's heterogeneous and homogeneous clusters.
func goldenInputs() map[string]func(c *cluster.Cluster) *graph.Graph {
	bert := func(m models.PaperModel, cfg models.TransformerConfig, layers int) func(*cluster.Cluster) *graph.Graph {
		cfg.Layers = layers
		return func(c *cluster.Cluster) *graph.Graph {
			return models.Training(models.BERT(cfg, models.PerDeviceBatch(m)*c.TotalGPUs()*cfg.SeqLen))
		}
	}
	moe := models.BERTMoE(8)
	moe.Vocab = 8192
	return map[string]func(*cluster.Cluster) *graph.Graph{
		"vgg19": func(c *cluster.Cluster) *graph.Graph { return models.Build(models.ModelVGG19, c.TotalGPUs()) },
		"vit":   func(c *cluster.Cluster) *graph.Graph { return models.Build(models.ModelViT, c.TotalGPUs()) },
		"bert6": bert(models.ModelBERTBase, models.BERTBase(), 6),
		"moe4":  bert(models.ModelBERTMoE, moe, 4),
	}
}

// TestGoldenPlanIdentity holds every cold search of the table byte-identical
// to the pinned hash.
func TestGoldenPlanIdentity(t *testing.T) {
	clusters := map[string]*cluster.Cluster{
		"het8": cluster.PaperHeterogeneous(1),
		"hom4": cluster.PaperHomogeneous(2),
	}
	for model, build := range goldenInputs() {
		for cname, c := range clusters {
			name := model + "/" + cname
			t.Run(name, func(t *testing.T) {
				g := build(c)
				th := theory.New(g)
				b := cost.UniformRatios(g.NumSegments(), c.ProportionalRatios())
				p, stats, err := Synthesize(context.Background(), g, th, c, b, Options{BeamWidth: 48})
				if err != nil {
					t.Fatal(err)
				}
				got := pinOf(p, stats)
				if want := goldenPlans[name]; got != want {
					t.Errorf("plan moved: built\n\t%q: {%q, %d, %d},\npinned %+v", name, got.hash, got.expansions, got.pushed, want)
				}
			})
		}
	}
}

// pinOf is a search's golden row.
func pinOf(p *dist.Program, stats Stats) goldenPlan {
	h := fnv.New64a()
	h.Write([]byte(p.String()))
	return goldenPlan{fmt.Sprintf("%016x", h.Sum64()), stats.Expansions, stats.Pushed}
}

// TestGoldenSeededPlan holds the seeded search to goldenSeeded, and to
// having consumed its seed.
func TestGoldenSeededPlan(t *testing.T) {
	p, stats, err := newSeededInput(t).search()
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Seeded {
		t.Error("the search did not consume its seed")
	}
	if got := pinOf(p, stats); got != goldenSeeded {
		t.Errorf("seeded plan moved: built {%q, %d, %d}, pinned %+v", got.hash, got.expansions, got.pushed, goldenSeeded)
	}
}
