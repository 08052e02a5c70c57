// Benchmarks of the synthesis hot path, one per paper workload, for profiling
// (-benchmem, -cpuprofile). Their times are not gated anywhere. Each
// iteration after the first times a warm search: it borrows the working
// memory the one before returned to the pool, as every search after a
// process's first does. What a search costs is held exactly instead:
// TestSearchAllocationPin pins allocations per search, its cold rows what a
// search carving its whole working memory costs, and goldenPlans/goldenSeeded
// pin plans and effort counters.
package synth

import (
	"context"
	"errors"
	"math"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"time"

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

// allocsPerRun returns the fewest allocations, and the fewest KiB, that f
// made in one of runs runs, measured with the collector paused and on one
// P. A cold run first drains scratchPool — scratchIdleCycles collections
// with no search between them free its idle scratches — so its searches
// carve their memory as fresh ones; a warm run follows an unmeasured one,
// so its searches borrow the scratch a run before returned. With no
// cycle's own allocations in the count, a serial search repeats its count
// exactly (with GC on, a re-run read 30 allocations against its usual 21
// in one of ~8 runs). Two concurrent searches return two scratches, and
// which search draws which is the scheduler's choice: a scratch that has
// served only the smaller search grows its trail and buffers the first
// time it serves the larger (BERT-MoE/het8's Optimize: 1 511 against
// 1 413), once. That is at most two runs in any process, so the fewest of
// three is exact too.
func allocsPerRun(runs int, cold bool, f func()) (allocs, kib float64) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	allocs, kib = math.Inf(1), math.Inf(1)
	var before, after runtime.MemStats
	for i := 0; i < runs; i++ {
		for j := 0; cold && j < scratchIdleCycles; j++ {
			runtime.GC()
		}
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		allocs = min(allocs, float64(after.Mallocs-before.Mallocs))
		kib = min(kib, float64(after.TotalAlloc-before.TotalAlloc)/1024)
	}
	return allocs, kib
}

// exactCounts reports whether allocation counts are held exactly: on the
// toolchain the pins are measured with (go1.24, which CI's alloc-pins job
// runs) and without the race detector, whose runtime allocates on its own
// (6–26 more allocations in a cold search or Optimize). Elsewhere a count
// may exceed its pin by 25 %.
var exactCounts = !raceEnabled && strings.HasPrefix(runtime.Version(), "go1.24")

// countHolds reports whether got allocations hold pin (see exactCounts).
// Warm rows are measured under the race detector too: the pool holds its
// scratches itself, where a sync.Pool drops a random quarter of its Puts
// under the race detector, so that a warm search could carve a whole
// scratch (a warm bert4 row read 767 there).
func countHolds(got float64, pin int) bool {
	if exactCounts {
		return got == float64(pin)
	}
	return got <= 1.25*float64(pin)
}

// TestSearchAllocationPin holds the beam's allocation profile, cold and
// warm. Each row is one search, whose allocation count is exact run to run
// (the search is deterministic and single-threaded; see allocsPerRun) and
// whose bytes repeat to a few KiB. A cold search carves its whole working
// memory (the state arena, the trail, the beam's buffers); a warm one
// borrows what the search before it returned, so what it allocates is the
// emitted program, the per-input tables of New and the search's fixed
// overhead. All rows but "VGG19 hom4" run on the paper's
// one-GPU-per-machine cluster, so they carry no intra-machine penalty table;
// "VGG19 hom4" runs on PaperHomogeneous(2), whose two-GPU machines take the
// commPen != nil path (the penalty table and its slab). The per-B compute
// table shares a slab with the tabled flops: the cold rows read 437 / 1 440,
// 734 / 3 805, 879 / 5 693 and 145 / 476 KiB while the zero penalty table
// was allocated and the flops were recomputed. Fresh states carving new
// slabs instead of reusing retired ones cost about one allocation per two
// states materialized (VGG19 read 5 722 before retired states handed their
// backing back); every state's two bitsets are carved from the arena's slab
// beside its other backing and copied on clone — carved from the heap they
// cost one allocation per copy (9 665 before the slab), and while a child
// borrowed its parent's bitsets copy-on-write a retiring parent could not
// hand them back, so the cold rows read 437 / 1 420 KiB, 734 / 3 742,
// 879 / 5 626, 437 / 1 414 and 145 / 452; a closure in runBeam that
// captures the selection loop's locals moves them to the heap once per
// iteration (19 631 before the materialize loop went serial) — escape
// analysis is per function, not per branch. The incremental row read 2 793
// while the replay kept each tensor's properties in a map, the donor's
// theory allocated per triple, the hasher per node signature and the seed a
// slice per pin; BuildSeed is now 43 of its 140 (the donor's theory 12, the
// diff 7, the replay's mirror and branches, the seed's tables). Bytes fail
// past their pin + 5 %: retired ancestors kept as state structs until the
// search ends, and duplicates built before their key rejected them, cost
// VGG19 3 569 KiB per search before the trail and key-first dedup
// (BERT-Base 8 940, BERT-MoE 12 705, VGG19 incremental 747); a trail grown
// by append rather than in chunks would add ~570 KiB to VGG19 and ~2 600 to
// BERT-Base. Until searches borrowed their scratch from a pool every search
// was a cold one, and the counts allowed + 25 % for the collector's jitter;
// a cold row counts 1 more than that search did (413, 690, 822, 415, 140):
// the scratch itself. While the pool was a sync.Pool it counted 3 more:
// the pool's per-P array and its registration, which sync.Pool makes again
// after every collection.
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
	seeded := newSeededInput(t)
	for _, row := range []struct {
		name                string
		search              func()
		coldAllocs, coldKiB int
		warmAllocs, warmKiB int
	}{
		{"VGG19", cold(models.ModelVGG19, het), 414, 1319, 33, 78},
		{"BERT-Base", cold(models.ModelBERTBase, het), 691, 3221, 37, 187},
		{"BERT-MoE", cold(models.ModelBERTMoE, het), 823, 4826, 37, 201},
		{"VGG19 hom4", cold(models.ModelVGG19, cluster.PaperHomogeneous(2)), 416, 1326, 35, 93},
		{"VGG19 incremental", func() {
			if _, _, err := seeded.search(); err != nil {
				t.Fatal(err)
			}
		}, 141, 436, 75, 160},
	} {
		for _, c := range []struct {
			temp        string
			cold        bool
			allocs, kib int
		}{{"cold", true, row.coldAllocs, row.coldKiB}, {"warm", false, row.warmAllocs, row.warmKiB}} {
			got, kib := allocsPerRun(3, c.cold, row.search)
			t.Logf("%s %s: %.0f allocs, %.0f KiB per search (pinned %d, %d KiB)", row.name, c.temp, got, kib, c.allocs, c.kib)
			if !countHolds(got, c.allocs) {
				t.Errorf("%s %s search: %.0f allocs, pinned %d (exact: %v)", row.name, c.temp, got, c.allocs, exactCounts)
			}
			if limit := 1.05 * float64(c.kib); kib > limit {
				t.Errorf("%s %s search: %.0f KiB, want at most %.0f (pinned %d KiB + 5%%)", row.name, c.temp, kib, limit, c.kib)
			}
		}
	}
}

// TestRerunAllocationPin holds a reused Synthesizer's second Run on every
// paper model. Warm, it borrows the scratch its first Run returned — the
// arena, the trail and the beam's buffers — so what it allocates is the
// emitted program and the search's fixed overhead, not its states: the
// Q↔B loop re-prices one Synthesizer per arm and leans on this. Cold, with
// the pool drained, it carves a whole scratch, as a fresh search does. While
// children borrowed their parents' bitsets copy-on-write, a retiring parent
// could not hand its bitsets back, every re-run carved fresh ones and read
// 34 / 58 / 71 (VGG19 / BERT-Base / BERT-MoE), growing with the search.
func TestRerunAllocationPin(t *testing.T) {
	for _, row := range []struct {
		model      models.PaperModel
		cold, warm int
	}{
		{models.ModelVGG19, 400, 19},
		{models.ModelBERTBase, 675, 21},
		{models.ModelBERTMoE, 807, 21},
	} {
		g, th, c, ratios := benchInput(row.model)
		sy := New(g, th, c, ratios, Options{BeamWidth: 48})
		run := func() {
			if _, _, err := sy.Run(context.Background()); err != nil {
				t.Fatal(err)
			}
		}
		cold, _ := allocsPerRun(3, true, run)
		warm, _ := allocsPerRun(3, false, run)
		t.Logf("%s: %.0f allocs per cold re-run, %.0f per warm one", row.model, cold, warm)
		if !countHolds(cold, row.cold) || !countHolds(warm, row.warm) {
			t.Errorf("%s: a reused Synthesizer's Run made %.0f allocations cold and %.0f warm, pinned %d and %d (exact: %v)",
				row.model, cold, warm, row.cold, row.warm, exactCounts)
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

// TestReturnedScratchHoldsNoTriple holds giveBack's promise: once Run has
// returned, the scratch it borrowed holds no *theory.Triple — neither in a
// trail record, up to every chunk's capacity, nor among the candidate
// triples, up to the buffer's capacity — so a pooled scratch never pins a
// finished search's theory or graph. The seeded row also fast-forwards
// through a donor prefix before its beam.
func TestReturnedScratchHoldsNoTriple(t *testing.T) {
	in := newSeededInput(t)
	seed := BuildSeed(in.donorG, in.donor, nil, in.g, in.th, 0)
	if seed == nil {
		t.Fatal("BuildSeed returned nil")
	}
	g, th, c, ratios := benchInput(models.ModelVGG19)
	for _, row := range []struct {
		name string
		sy   *Synthesizer
	}{
		{"VGG19", New(g, th, c, ratios, Options{BeamWidth: 48})},
		{"VGG19 incremental", New(in.g, in.th, in.c, in.ratios, Options{BeamWidth: -1, Seed: seed})},
	} {
		sy := row.sy
		var rs *runScratch
		sy.levelHook = func([]*state, []candRef) { rs = sy.runScratch }
		if _, _, err := sy.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		if sy.runScratch != nil {
			t.Errorf("%s: the Synthesizer kept its scratch after Run", row.name)
		}
		if rs == nil || cap(rs.trail) == 0 || cap(rs.beam.lc.comps) == 0 {
			t.Fatalf("%s: the search ran no beam level on a scratch with a trail", row.name)
		}
		for i, chunk := range rs.trail[:cap(rs.trail)] {
			for j, r := range chunk[:cap(chunk)] {
				if r.tr != nil {
					t.Fatalf("%s: trail record %d still holds a triple", row.name, i*trailChunk+j)
				}
			}
		}
		for i, tr := range rs.beam.lc.comps[:cap(rs.beam.lc.comps)] {
			if tr != nil {
				t.Fatalf("%s: candidate triple %d is still held", row.name, i)
			}
		}
	}
}

// TestScratchPoolFreesIdleScratch holds the pool's release rule: a
// returned scratch survives scratchIdleCycles-1 collections with no search
// between them — the next search borrows that same scratch, however the
// collections fell — and once scratchIdleCycles have passed the collector
// frees it between searches (tick), with no borrow to apply the rule.
func TestScratchPoolFreesIdleScratch(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	g, th, c, ratios := benchInput(models.ModelVGG19)
	sy := New(g, th, c, ratios, Options{BeamWidth: 48})
	var used *runScratch
	sy.levelHook = func([]*state, []candRef) { used = sy.runScratch }
	run := func() *runScratch {
		used = nil
		if _, _, err := sy.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		return used
	}
	idle := func() int {
		scratchPool.Lock()
		defer scratchPool.Unlock()
		return len(scratchPool.idle)
	}
	first := run()
	for i := 0; i < scratchIdleCycles-1; i++ {
		runtime.GC()
	}
	if again := run(); again != first {
		t.Fatalf("a search %d collections after the last one carved a new scratch", scratchIdleCycles-1)
	}
	freed := make(chan struct{})
	runtime.SetFinalizer(first, func(*runScratch) { close(freed) })
	first, used = nil, nil
	for i := 0; i < scratchIdleCycles; i++ {
		runtime.GC()
	}
	for deadline := time.Now().Add(10 * time.Second); idle() > 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d collections with no search left %d scratches idle in the pool", scratchIdleCycles, idle())
		}
	}
	runtime.GC()
	select {
	case <-freed:
	case <-time.After(10 * time.Second):
		t.Error("the pool let go of its idle scratch, but something still holds it")
	}
}

// TestBorrowPrefersFittingScratch holds borrow's choice: with a scratch
// carved for a smaller graph returned last, a search on a larger graph
// takes the idle scratch whose slabs already fit it rather than re-carving
// the smaller one's.
func TestBorrowPrefersFittingScratch(t *testing.T) {
	scratchPool.Lock()
	clear(scratchPool.idle)
	scratchPool.idle = scratchPool.idle[:0]
	scratchPool.Unlock()
	newSy := func(model models.PaperModel) *Synthesizer {
		g, th, c, ratios := benchInput(model)
		return New(g, th, c, ratios, Options{BeamWidth: 48})
	}
	large, small := newSy(models.ModelBERTBase), newSy(models.ModelVGG19)
	large.borrow()
	small.borrow()
	fits := large.runScratch
	large.giveBack()
	small.giveBack()
	again := newSy(models.ModelBERTBase)
	again.borrow()
	defer again.giveBack()
	if again.runScratch != fits {
		t.Fatal("a BERT-Base search took the scratch carved for VGG19 while one carved for BERT-Base was idle")
	}
}
