// Microbenchmarks for the synthesis hot path: one benchmark per paper
// workload, each reporting ns/op and allocs/op via -benchmem. These are the
// numbers BENCH_synth.json baselines and CI's "bench synth" step regresses
// against.
package synth

import (
	"context"
	"fmt"
	"testing"

	"hap/internal/cluster"
	"hap/internal/cost"
	"hap/internal/graph"
	"hap/internal/models"
	"hap/internal/theory"
)

// benchInput is the search every BenchmarkSynthesize* row times: a paper
// model on the paper's heterogeneous cluster at B⁽⁰⁾.
func benchInput(model models.PaperModel) (*graph.Graph, *theory.Theory, *cluster.Cluster, [][]float64) {
	c := cluster.PaperHeterogeneous(1)
	g := models.Build(model, c.TotalGPUs())
	return g, theory.New(g), c, cost.UniformRatios(g.NumSegments(), c.ProportionalRatios())
}

func benchSynthesize(b *testing.B, model models.PaperModel) {
	g, th, c, ratios := benchInput(model)
	// 2 is the reference box's GOMAXPROCS, so workers=2 is what a default
	// caller runs there.
	for _, workers := range []int{1, 2, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			opt := Options{BeamWidth: 48, Workers: workers}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := Synthesize(context.Background(), g, th, c, ratios, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// vgg19SearchAllocs is BenchmarkSynthesizeVGG19/workers=1's allocs/op. The
// count is exact run to run: the search is deterministic and single-threaded.
const vgg19SearchAllocs = 578

// fanOutAllocsPerLevel bounds what Workers=2 allocates per beam level beyond
// Workers=1: the WaitGroup, the goroutines and their closures, and chunk
// buffers while they grow. Measured 5.4 ((1 296 − 578) / 134 levels); one
// allocation per candidate would add thousands.
const fanOutAllocsPerLevel = 8

// TestSearchAllocationPin holds the beam's allocation profile. Fresh states
// carving new slabs instead of taking retired ancestors' backing cost about
// one allocation per two states materialized (5 722 before ancestors handed
// it back: props outgrowing their slab, fresh slabs all search long); a fresh
// state's copy-on-write bitset missing the arena's slab costs one per state
// (9 665 before the slab); a closure in runBeam that captures the selection
// loop's locals moves them to the heap once per iteration (19 631 before the
// materialize loop went serial) — for every worker count, since escape
// analysis is per function, not per branch. Workers cost a few goroutines
// and chunk buffers per level on top, nothing per candidate: since the
// serial search allocates less than the fan-out's fixed cost, that is held
// per level, not as a ratio.
func TestSearchAllocationPin(t *testing.T) {
	g, th, c, ratios := benchInput(models.ModelVGG19)
	allocs := func(workers int) float64 {
		return testing.AllocsPerRun(2, func() {
			if _, _, err := Synthesize(context.Background(), g, th, c, ratios, Options{BeamWidth: 48, Workers: workers}); err != nil {
				t.Fatal(err)
			}
		})
	}
	one := allocs(1)
	if limit := 1.25 * vgg19SearchAllocs; one > limit {
		t.Errorf("VGG19 search at Workers=1: %.0f allocs, want at most %.0f (pinned %d + 25%%)", one, limit, vgg19SearchAllocs)
	}
	levels := 0
	sy := New(g, th, c, ratios, Options{BeamWidth: 48, Workers: 1})
	sy.levelHook = func([]*state, []candRef) { levels++ }
	if _, _, err := sy.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	two := allocs(2)
	perLevel := (two - one) / float64(levels)
	t.Logf("allocs per search: %.0f at Workers=1, %.0f at Workers=2 (%.1f per level over %d levels)", one, two, perLevel, levels)
	if perLevel > fanOutAllocsPerLevel {
		t.Errorf("VGG19 search at Workers=2: %.1f allocs per level beyond Workers=1, want at most %d", perLevel, fanOutAllocsPerLevel)
	}
}

func BenchmarkSynthesizeVGG19(b *testing.B) { benchSynthesize(b, models.ModelVGG19) }
func BenchmarkSynthesizeBERT(b *testing.B)  { benchSynthesize(b, models.ModelBERTBase) }
func BenchmarkSynthesizeMoE(b *testing.B)   { benchSynthesize(b, models.ModelBERTMoE) }

// BenchmarkSynthesizeIncrementalVGG19 is the warm near-miss path: a
// one-layer-wider VGG19 planned seeded from the base VGG19's plan. The timed
// region is everything a cache miss with a donor pays — the structural diff,
// the donor replay (donor theory included), and the seeded search — and the
// benchcheck gate holds it under 15% of BenchmarkSynthesizeVGG19/workers=1.
func BenchmarkSynthesizeIncrementalVGG19(b *testing.B) {
	c := cluster.PaperHeterogeneous(1)
	batch := models.PerDeviceBatch(models.ModelVGG19) * c.TotalGPUs()
	donorG := models.Training(models.VGG19(batch, 224, 10))
	donorTh := theory.New(donorG)
	donorRatios := cost.UniformRatios(donorG.NumSegments(), c.ProportionalRatios())
	donor, _, err := Synthesize(context.Background(), donorG, donorTh, c, donorRatios, Options{BeamWidth: 48, Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	wide := models.Training(models.VGG19OneWider(batch, 224, 10))
	thWide := theory.New(wide)
	ratios := cost.UniformRatios(wide.NumSegments(), c.ProportionalRatios())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seed := BuildSeed(donorG, donor, nil, wide, thWide, 0)
		if seed == nil {
			b.Fatal("BuildSeed returned nil")
		}
		opt := Options{BeamWidth: -1, Workers: 1, Seed: seed}
		if _, _, err := Synthesize(context.Background(), wide, thWide, c, ratios, opt); err != nil {
			b.Fatal(err)
		}
	}
}
