package hapopt

import (
	"context"
	"runtime"
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
// end-to-end number hap-serve pays per cache miss, for profiling.
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

// TestOptimizeAllocationPin holds one whole Optimize to its pinned
// allocation count + 25 % and its pinned bytes + 5 %. The count is
// exact run to run: each arm's search is serial and deterministic. Synth's
// TestSearchAllocationPin holds the searches alone; these rows add segment
// assignment, the theories, the arms' goroutines, cost extraction and the
// ratio LP. loopInput runs two searches, one per arm. bert4/pg16/seg4 runs
// four on one Synthesizer, re-priced per B: a fresh synth.New per search,
// each carving its own arena, trail and beam buffers, cost it 4 451
// allocations and 6 310 KiB. While theory.New allocated per triple and the
// hasher per node signature, the rows read 10 571 / 10 738 KiB and
// 3 252 / 2 232 KiB. Those two clusters are one GPU per device: while each
// Synthesizer also allocated a penalty table of zeros, the rows read
// 2 997 / 10 478 KiB and 817 / 2 197 KiB. VGG19/hom4 is hom4Input, one
// search on the commPen != nil path (the intra-machine penalty table and
// its slab). While a search's states borrowed their parents' bitsets
// copy-on-write and re-carved them on every re-run, the three rows read
// 2 993 / 10 334, 812 / 2 156 and 504 / 1 518 KiB.
func TestOptimizeAllocationPin(t *testing.T) {
	cfg := models.BERTBase()
	cfg.Layers = 4
	pg16 := benchPerGPU(4)
	for _, row := range []struct {
		name     string
		input    func() (*graph.Graph, *cluster.Cluster, Options)
		searches int
		allocs   int
		kib      int
	}{
		{"BERT-MoE/het8", loopInput, 2, 2887, 8797},
		{"bert4/pg16/seg4", func() (*graph.Graph, *cluster.Cluster, Options) {
			return bertGraph(cfg, models.PerDeviceBatch(models.ModelBERTBase)*pg16.TotalGPUs()), pg16,
				Options{Segments: 4, Synth: synth.Options{BeamWidth: 48}}
		}, 4, 754, 1828},
		{"VGG19/hom4", hom4Input, 1, 484, 1429},
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
		got := testing.AllocsPerRun(2, run)
		run()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run()
		run()
		runtime.ReadMemStats(&after)
		kib := float64(after.TotalAlloc-before.TotalAlloc) / 2 / 1024
		t.Logf("%s: %.0f allocs, %.0f KiB per Optimize (pinned %d, %d KiB)", row.name, got, kib, row.allocs, row.kib)
		if limit := 1.25 * float64(row.allocs); got > limit {
			t.Errorf("%s: %.0f allocs, want at most %.0f (pinned %d + 25%%)", row.name, got, limit, row.allocs)
		}
		if limit := 1.05 * float64(row.kib); kib > limit {
			t.Errorf("%s: %.0f KiB, want at most %.0f (pinned %d KiB + 5%%)", row.name, kib, limit, row.kib)
		}
	}
}
