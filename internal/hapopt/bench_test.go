package hapopt

import (
	"context"
	"math"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"hap/internal/cluster"
	"hap/internal/graph"
	"hap/internal/models"
	"hap/internal/synth"
)

// loopInput is the paper's BERT-MoE workload on its heterogeneous cluster —
// the portfolio case, where the base and the expert-restricted theories
// search concurrently. On this cluster the balancer moves B only by
// round-off, so the loop converges after one iteration (two searches, one per
// arm) whatever the iteration bound allows.
func loopInput() (*graph.Graph, *cluster.Cluster, Options) {
	c := cluster.PaperHeterogeneous(1)
	return models.Build(models.ModelBERTMoE, c.TotalGPUs()), c,
		Options{iterations: 2, Synth: synth.Options{BeamWidth: 48}}
}

// hom4Input is VGG19 on PaperHomogeneous(2), whose two-GPU machines take
// the intra-machine penalty table path. On its identical devices the
// balancer returns the B the search ran under, so the loop converges after
// one search.
func hom4Input() (*graph.Graph, *cluster.Cluster, Options) {
	c := cluster.PaperHomogeneous(2)
	return models.Build(models.ModelVGG19, c.TotalGPUs()), c, Options{Synth: synth.Options{BeamWidth: 48}}
}

// BenchmarkOptimizeLoop measures the full Q↔B alternation on loopInput, the
// end-to-end number hap-serve pays per cache miss, for profiling. Its
// searches are warm after the first iteration: they borrow the working
// memory earlier ones returned to synth's pool. The cold cost, every search
// carving its own, is held by TestOptimizeAllocationPin's cold rows.
func BenchmarkOptimizeLoop(b *testing.B) { benchOptimize(b, loopInput) }

// BenchmarkOptimizeVGG19Hom4 is BenchmarkOptimizeLoop on hom4Input.
func BenchmarkOptimizeVGG19Hom4(b *testing.B) { benchOptimize(b, hom4Input) }

func benchOptimize(b *testing.B, input func() (*graph.Graph, *cluster.Cluster, Options)) {
	g, c, opt := input()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Optimize(context.Background(), g, c, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// scratchIdleCycles is internal/synth's: that many collections with no
// search between them free the scratch pool's idle scratches.
const scratchIdleCycles = 8

// allocsPerRun returns the fewest allocations, and the fewest KiB, that f
// made in one of runs runs, measured as internal/synth's allocsPerRun
// measures a search: the collector paused, one P, a cold run after
// scratchIdleCycles collections have drained synth's scratch pool, a warm
// run after an unmeasured one. The fewest of three matters here: an
// Optimize of two concurrent arms returns two scratches, and which arm
// draws which is the scheduler's choice, so a scratch that has served only
// the smaller arm grows its trail and buffers once, the first time it
// serves the larger (BERT-MoE/het8: 1 511 against 1 413) — in at most two
// runs of a process.
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
func countHolds(got float64, pin int) bool {
	if exactCounts {
		return got == float64(pin)
	}
	return got <= 1.25*float64(pin)
}

// TestOptimizeAllocationPin holds one whole Optimize, cold and warm, to its
// pinned allocation count exactly and its pinned bytes + 5 %. The count is
// exact run to run (see allocsPerRun): each arm's search is serial and
// deterministic. Cold, every search of the first iteration carves its
// working memory; warm, each borrows a scratch an earlier Optimize returned.
// Synth's TestSearchAllocationPin holds the searches alone; these rows add
// segment assignment, the theories, the arms' goroutines, cost extraction
// and the ratio LP. loopInput runs two searches, one per arm, concurrently:
// cold, each carves its own scratch. bert4/pg16/seg4 runs four on one
// Synthesizer, re-priced per B; from the second on, each search borrows the
// scratch the one before returned. A fresh synth.New per search, each
// carving its own arena, trail and beam buffers, cost it 4 451 allocations
// and 6 310 KiB. While theory.New allocated per triple and the hasher per
// node signature, the cold rows read 10 571 / 10 738 KiB and 3 252 / 2 232
// KiB. Those two clusters are one GPU per device: while each Synthesizer
// also allocated a penalty table of zeros, the cold rows read 2 997 /
// 10 478 KiB and 817 / 2 197 KiB. VGG19/hom4 is hom4Input, one search on the
// commPen != nil path (the intra-machine penalty table). While
// a search's states borrowed their parents' bitsets copy-on-write and
// re-carved them on every re-run, the three cold rows read 2 993 / 10 334,
// 812 / 2 156 and 504 / 1 518 KiB. Until searches borrowed their scratch
// from a pool every Optimize was a cold one, and with the collector running
// the counts jittered (VGG19 × het8 read 506–511), so the pins allowed
// + 25 %. While every triple embedded its instruction, a search's program
// grew by append, cost.Stages copied every computation and the
// expert-parallel arm's theory.Filter grew one slice per node, the rows
// read, cold → warm in allocations / KiB: 2 889 / 8 797 → 1 413 / 896,
// 755 / 1 828 → 374 / 571 and 485 / 1 429 → 104 / 196. While each triple
// held its requirements in a slab of properties and synth.New tabled costs
// per graph node, they read 1 575 / 8 465 → 99 / 564, 626 / 1 526 →
// 245 / 268 and 447 / 1 341 → 66 / 107. While synth.New allocated gradOf
// apart from its int32 slab (one allocation more per New), they read
// 1 552 / 8 375 → 76 / 474, 616 / 1 494 → 235 / 237 and 435 / 1 308 →
// 54 / 75. While every emitted computation carried a copy of its node's
// input list (a slab per program, a copy per Clone), they read
// 1 550 / 8 371 → 74 / 470, 615 / 1 493 → 234 / 236 and 434 / 1 307 →
// 53 / 74. Since Optimize checks the plan it returns (theory.Check, one
// slab of four bytes per graph node), each row counts one allocation and
// 1–2 KiB more: they read 1 548 / 8 324 → 72 / 423, 611 / 1 469 →
// 230 / 212 and 433 / 1 302 → 52 / 69 before. While every iteration
// ran a reachability prune of its own (two slices each) and the verify
// phase made a checker slab of its own, they read 1 549 / 8 326 → 73 / 425,
// 612 / 1 470 → 231 / 213 and 434 / 1 303 → 53 / 70; the liveness walk
// runs on one slab per Optimize, shared with the verify phase.
func TestOptimizeAllocationPin(t *testing.T) {
	cfg := models.BERTBase()
	cfg.Layers = 4
	pg16 := benchPerGPU(4)
	for _, row := range []struct {
		name                string
		input               func() (*graph.Graph, *cluster.Cluster, Options)
		searches            int
		coldAllocs, coldKiB int
		warmAllocs, warmKiB int
	}{
		{"BERT-MoE/het8", loopInput, 2, 1547, 8316, 71, 415},
		{"bert4/pg16/seg4", func() (*graph.Graph, *cluster.Cluster, Options) {
			return bertGraph(cfg, models.PerDeviceBatch(models.ModelBERTBase)*pg16.TotalGPUs()), pg16,
				Options{Segments: 4, Synth: synth.Options{BeamWidth: 48}}
		}, 4, 601, 1464, 220, 207},
		{"VGG19/hom4", hom4Input, 1, 432, 1302, 51, 69},
	} {
		g, c, opt := row.input()
		if _, searches, _, err := optimizeTraced(g, c, opt); err != nil || searches != row.searches {
			t.Fatalf("%s: %d searches (err %v), want %d", row.name, searches, err, row.searches)
		}
		run := func() {
			if _, err := Optimize(context.Background(), g, c, opt); err != nil {
				t.Fatal(err)
			}
		}
		for _, c := range []struct {
			temp        string
			cold        bool
			allocs, kib int
		}{{"cold", true, row.coldAllocs, row.coldKiB}, {"warm", false, row.warmAllocs, row.warmKiB}} {
			got, kib := allocsPerRun(3, c.cold, run)
			t.Logf("%s %s: %.0f allocs, %.0f KiB per Optimize (pinned %d, %d KiB)", row.name, c.temp, got, kib, c.allocs, c.kib)
			if !countHolds(got, c.allocs) {
				t.Errorf("%s %s: %.0f allocs, pinned %d (exact: %v)", row.name, c.temp, got, c.allocs, exactCounts)
			}
			if limit := 1.05 * float64(c.kib); kib > limit {
				t.Errorf("%s %s: %.0f KiB, want at most %.0f (pinned %d KiB + 5%%)", row.name, c.temp, kib, limit, c.kib)
			}
		}
	}
}
