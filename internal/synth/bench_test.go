// Benchmarks of the synthesis hot path, one per paper workload, for profiling
// (-benchmem, -cpuprofile). Their times are not gated anywhere. What the
// search costs is held exactly instead: TestSearchAllocationPin pins
// allocations per search, and goldenPlans/goldenSeeded pin plans and effort
// counters.
package synth

import (
	"context"
	"errors"
	"runtime"
	"testing"

	"hap/internal/cluster"
	"hap/internal/cost"
	"hap/internal/dist"
	"hap/internal/graph"
	"hap/internal/models"
	"hap/internal/theory"
)

// benchInput is a paper model's search on the paper's heterogeneous
// cluster at B⁽⁰⁾.
func benchInput(model models.PaperModel) (*graph.Graph, *theory.Theory, *cluster.Cluster, [][]float64) {
	return inputOn(model, cluster.PaperHeterogeneous(1))
}

// inputOn is benchInput's search on cluster c.
func inputOn(model models.PaperModel, c *cluster.Cluster) (*graph.Graph, *theory.Theory, *cluster.Cluster, [][]float64) {
	g := models.Build(model, c.TotalGPUs())
	return g, theory.New(g), c, cost.UniformRatios(g.NumSegments(), c.ProportionalRatios())
}

func benchSynthesize(b *testing.B, model models.PaperModel, c *cluster.Cluster) {
	g, th, c, ratios := inputOn(model, c)
	opt := Options{BeamWidth: 48}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Synthesize(context.Background(), g, th, c, ratios, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// seededInput is the warm near-miss path: a one-layer-wider VGG19 on the
// paper's heterogeneous cluster, planned seeded from the base VGG19's cold
// plan (B⁽⁰⁾).
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
		cost.UniformRatios(donorG.NumSegments(), c.ProportionalRatios()), Options{BeamWidth: 48})
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
func (in *seededInput) search() (*dist.Program, Stats, error) {
	seed := BuildSeed(in.donorG, in.donor, nil, in.g, in.th, 0)
	if seed == nil {
		return nil, Stats{}, errors.New("BuildSeed returned nil")
	}
	return Synthesize(context.Background(), in.g, in.th, in.c, in.ratios, Options{BeamWidth: -1, Seed: seed})
}

// TestSearchAllocationPin holds the beam's allocation profile. Each row is
// one search, whose allocation count is exact run to run (the
// search is deterministic and single-threaded) and whose bytes repeat to a
// few KiB. All rows but "VGG19 hom4" run on the paper's one-GPU-per-machine
// cluster, so they carry no intra-machine penalty table; "VGG19 hom4" runs
// on PaperHomogeneous(2), whose two-GPU machines take the commPen != nil
// path (the penalty table and its slab). The per-B compute table
// shares a slab with the tabled flops: the rows read 437 / 1 440, 734 /
// 3 805, 879 / 5 693 and 145 / 476 KiB while the zero penalty table was
// allocated and the flops were recomputed. A count fails past its pin + 25 %: fresh states carving new slabs
// instead of reusing retired ones cost about one allocation per two states
// materialized (VGG19 read 5 722 before retired states handed their backing
// back); every state's two bitsets are carved from the arena's slab beside
// its other backing and copied on clone — carved from the heap they cost one
// allocation per copy (9 665 before the slab), and while a child borrowed
// its parent's bitsets copy-on-write a retiring parent could not hand them
// back, so the rows read 437 / 1 420 KiB, 734 / 3 742, 879 / 5 626,
// 437 / 1 414 and 145 / 452; a closure in runBeam that captures
// the selection loop's locals moves them to the heap once per iteration
// (19 631 before the materialize loop went serial) — escape analysis is
// per function, not per branch. The incremental
// row read 2 793 while the replay kept each tensor's properties in a map,
// the donor's theory allocated per triple, the hasher per node signature and
// the seed a slice per pin; BuildSeed is now 43 of its 140 (the donor's
// theory 12, the diff 7, the replay's mirror and branches, the seed's
// tables). Bytes fail past their pin + 5 %:
// retired ancestors kept as state structs until the search ends, and
// duplicates built before their key rejected them, cost VGG19 3 569 KiB per
// search before the trail and key-first dedup (BERT-Base 8 940, BERT-MoE
// 12 705, VGG19 incremental 747); a trail grown by append rather than in
// chunks would add ~570 KiB to VGG19 and ~2 600 to BERT-Base.
func TestSearchAllocationPin(t *testing.T) {
	het := cluster.PaperHeterogeneous(1)
	cold := func(model models.PaperModel, c *cluster.Cluster) func() {
		g, th, c, ratios := inputOn(model, c)
		return func() {
			if _, _, err := Synthesize(context.Background(), g, th, c, ratios, Options{BeamWidth: 48}); err != nil {
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
		{"VGG19", cold(models.ModelVGG19, het), 413, 1319},
		{"BERT-Base", cold(models.ModelBERTBase, het), 690, 3221},
		{"BERT-MoE", cold(models.ModelBERTMoE, het), 822, 4826},
		{"VGG19 hom4", cold(models.ModelVGG19, cluster.PaperHomogeneous(2)), 415, 1326},
		{"VGG19 incremental", func() {
			if _, _, err := seeded.search(); err != nil {
				t.Fatal(err)
			}
		}, 140, 436},
	} {
		got := testing.AllocsPerRun(2, row.search)
		kib := kibPerRun(2, row.search)
		t.Logf("%s: %.0f allocs, %.0f KiB per search (pinned %d, %d KiB)", row.name, got, kib, row.allocs, row.kib)
		if limit := 1.25 * float64(row.allocs); got > limit {
			t.Errorf("%s search: %.0f allocs, want at most %.0f (pinned %d + 25%%)", row.name, got, limit, row.allocs)
		}
		if limit := 1.05 * float64(row.kib); kib > limit {
			t.Errorf("%s search: %.0f KiB, want at most %.0f (pinned %d KiB + 5%%)", row.name, kib, limit, row.kib)
		}
	}

}

// TestRerunAllocationPin holds a reused Synthesizer's second Run to a flat
// allocation count on every paper model: the arena, the trail and the beam's
// scratch all survive from the first Run, so what a re-run allocates is the
// emitted program and the search's fixed overhead, not its states. The
// Q↔B loop re-prices one Synthesizer per arm and leans on this. The runs
// read 19–21; while children borrowed their parents' bitsets copy-on-write,
// a retiring parent could not hand its bitsets back, every re-run carved
// fresh ones and read 34 / 58 / 71 (VGG19 / BERT-Base / BERT-MoE), growing
// with the search.
func TestRerunAllocationPin(t *testing.T) {
	const pin = 24
	for _, model := range []models.PaperModel{models.ModelVGG19, models.ModelBERTBase, models.ModelBERTMoE} {
		g, th, c, ratios := benchInput(model)
		sy := New(g, th, c, ratios, Options{BeamWidth: 48})
		run := func() {
			if _, _, err := sy.Run(context.Background()); err != nil {
				t.Fatal(err)
			}
		}
		run()
		got := testing.AllocsPerRun(2, run)
		t.Logf("%s: %.0f allocs per re-run", model, got)
		if got > pin {
			t.Errorf("%s: a reused Synthesizer's Run made %.0f allocations, want at most %d", model, got, pin)
		}
	}
}

func BenchmarkSynthesizeVGG19(b *testing.B) {
	benchSynthesize(b, models.ModelVGG19, cluster.PaperHeterogeneous(1))
}
func BenchmarkSynthesizeBERT(b *testing.B) {
	benchSynthesize(b, models.ModelBERTBase, cluster.PaperHeterogeneous(1))
}
func BenchmarkSynthesizeMoE(b *testing.B) {
	benchSynthesize(b, models.ModelBERTMoE, cluster.PaperHeterogeneous(1))
}

// BenchmarkSynthesizeVGG19Hom4 runs on PaperHomogeneous(2), whose two-GPU
// machines take the intra-machine penalty table path.
func BenchmarkSynthesizeVGG19Hom4(b *testing.B) {
	benchSynthesize(b, models.ModelVGG19, cluster.PaperHomogeneous(2))
}

// BenchmarkSynthesizeIncrementalVGG19 times seededInput.search, the whole
// warm near-miss path.
func BenchmarkSynthesizeIncrementalVGG19(b *testing.B) {
	in := newSeededInput(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := in.search(); err != nil {
			b.Fatal(err)
		}
	}
}
