// Benchmarks of the synthesis hot path, one per paper workload, for profiling
// (-benchmem, -cpuprofile). Their times are not gated anywhere. What the
// search costs is held exactly instead: TestSearchAllocationPin pins
// allocations per search, and goldenPlans/goldenSeeded pin plans and effort
// counters.
package synth

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"

	"hap/internal/cluster"
	"hap/internal/cost"
	"hap/internal/dist"
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

// seededInput is the warm near-miss path: a one-layer-wider VGG19 on the
// paper's heterogeneous cluster, planned seeded from the base VGG19's cold
// plan (Workers 1, B⁽⁰⁾).
type seededInput struct {
	donorG, g *graph.Graph
	donor     *dist.Program
	th        *theory.Theory
	c         *cluster.Cluster
	ratios    [][]float64
}

func newSeededInput(tb testing.TB) *seededInput {
	tb.Helper()
	c := cluster.PaperHeterogeneous(1)
	batch := models.PerDeviceBatch(models.ModelVGG19) * c.TotalGPUs()
	donorG := models.Training(models.VGG19(batch, 224, 10))
	donor, _, err := Synthesize(context.Background(), donorG, theory.New(donorG), c,
		cost.UniformRatios(donorG.NumSegments(), c.ProportionalRatios()), Options{BeamWidth: 48, Workers: 1})
	if err != nil {
		tb.Fatal(err)
	}
	wide := models.Training(models.VGG19OneWider(batch, 224, 10))
	return &seededInput{
		donorG: donorG, g: wide, donor: donor, th: theory.New(wide), c: c,
		ratios: cost.UniformRatios(wide.NumSegments(), c.ProportionalRatios()),
	}
}

// search is everything a cache miss with a donor pays: the structural diff
// and the donor replay (donor theory included) in BuildSeed, then the seeded
// search in automatic mode.
func (in *seededInput) search(workers int) (*dist.Program, Stats, error) {
	seed := BuildSeed(in.donorG, in.donor, nil, in.g, in.th, 0)
	if seed == nil {
		return nil, Stats{}, errors.New("BuildSeed returned nil")
	}
	return Synthesize(context.Background(), in.g, in.th, in.c, in.ratios, Options{BeamWidth: -1, Workers: workers, Seed: seed})
}

// fanOutAllocsPerLevel bounds what Workers=2 allocates per beam level beyond
// Workers=1: the WaitGroup, the goroutines and their closures, and chunk
// buffers while they grow. Measured 5.4 ((1 155 − 437) / 134 levels); one
// allocation per candidate would add thousands.
const fanOutAllocsPerLevel = 8

// TestSearchAllocationPin holds the beam's allocation profile. Each row is
// one search at Workers=1, whose allocation count is exact run to run (the
// search is deterministic and single-threaded) and whose bytes repeat to a
// few KiB. A count fails past its pin + 25 %: fresh states carving new slabs
// instead of reusing retired ones cost about one allocation per two states
// materialized (VGG19 read 5 722 before retired states handed their backing
// back); a fresh state's copy-on-write bitset missing the arena's slab costs
// one per state (9 665 before the slab); a closure in runBeam that captures
// the selection loop's locals moves them to the heap once per iteration
// (19 631 before the materialize loop went serial) — for every worker count,
// since escape analysis is per function, not per branch. The incremental
// row read 2 793 while the replay kept each tensor's properties in a map,
// the donor's theory allocated per triple, the hasher per node signature and
// the seed a slice per pin; BuildSeed is now 43 of its 145 (the donor's
// theory 12, the diff 7, the replay's mirror and branches, the seed's
// tables). Bytes fail past their pin + 5 %:
// retired ancestors kept as state structs until the search ends, and
// duplicates built before their key rejected them, cost VGG19 3 569 KiB per
// search before the trail and key-first dedup (BERT-Base 8 940, BERT-MoE
// 12 705, VGG19 incremental 747); a trail grown by append rather than in
// chunks would add ~570 KiB to VGG19 and ~2 600 to BERT-Base. Workers cost a
// few goroutines and chunk buffers per level on top, nothing per candidate:
// since the serial search allocates less than the fan-out's fixed cost, that
// is held per level, not as a ratio.
func TestSearchAllocationPin(t *testing.T) {
	cold := func(model models.PaperModel, workers int) func() {
		g, th, c, ratios := benchInput(model)
		return func() {
			if _, _, err := Synthesize(context.Background(), g, th, c, ratios, Options{BeamWidth: 48, Workers: workers}); err != nil {
				t.Fatal(err)
			}
		}
	}
	// kibPerRun is AllocsPerRun's byte counterpart: one warm-up run, then
	// the mean of TotalAlloc over runs.
	kibPerRun := func(runs int, f func()) float64 {
		f()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			f()
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs) / 1024
	}
	seeded := newSeededInput(t)
	for _, row := range []struct {
		name   string
		search func()
		allocs int
		kib    int
	}{
		{"VGG19", cold(models.ModelVGG19, 1), 437, 1440},
		{"BERT-Base", cold(models.ModelBERTBase, 1), 734, 3805},
		{"BERT-MoE", cold(models.ModelBERTMoE, 1), 879, 5693},
		{"VGG19 incremental", func() {
			if _, _, err := seeded.search(1); err != nil {
				t.Fatal(err)
			}
		}, 145, 476},
	} {
		got := testing.AllocsPerRun(2, row.search)
		kib := kibPerRun(2, row.search)
		t.Logf("%s: %.0f allocs, %.0f KiB per search (pinned %d, %d KiB)", row.name, got, kib, row.allocs, row.kib)
		if limit := 1.25 * float64(row.allocs); got > limit {
			t.Errorf("%s search at Workers=1: %.0f allocs, want at most %.0f (pinned %d + 25%%)", row.name, got, limit, row.allocs)
		}
		if limit := 1.05 * float64(row.kib); kib > limit {
			t.Errorf("%s search at Workers=1: %.0f KiB, want at most %.0f (pinned %d KiB + 5%%)", row.name, kib, limit, row.kib)
		}
	}

	g, th, c, ratios := benchInput(models.ModelVGG19)
	levels := 0
	sy := New(g, th, c, ratios, Options{BeamWidth: 48, Workers: 1})
	sy.levelHook = func([]*state, []candRef) { levels++ }
	if _, _, err := sy.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	one := testing.AllocsPerRun(2, cold(models.ModelVGG19, 1))
	two := testing.AllocsPerRun(2, cold(models.ModelVGG19, 2))
	perLevel := (two - one) / float64(levels)
	t.Logf("VGG19 allocs per search: %.0f at Workers=1, %.0f at Workers=2 (%.1f per level over %d levels)", one, two, perLevel, levels)
	if perLevel > fanOutAllocsPerLevel {
		t.Errorf("VGG19 search at Workers=2: %.1f allocs per level beyond Workers=1, want at most %d", perLevel, fanOutAllocsPerLevel)
	}
}

func BenchmarkSynthesizeVGG19(b *testing.B) { benchSynthesize(b, models.ModelVGG19) }
func BenchmarkSynthesizeBERT(b *testing.B)  { benchSynthesize(b, models.ModelBERTBase) }
func BenchmarkSynthesizeMoE(b *testing.B)   { benchSynthesize(b, models.ModelBERTMoE) }

// BenchmarkSynthesizeIncrementalVGG19 times seededInput.search, the whole
// warm near-miss path.
func BenchmarkSynthesizeIncrementalVGG19(b *testing.B) {
	in := newSeededInput(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := in.search(1); err != nil {
			b.Fatal(err)
		}
	}
}
