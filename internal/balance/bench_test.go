package balance_test

import (
	"context"
	"runtime"
	"testing"

	"hap/internal/balance"
	"hap/internal/cluster"
	"hap/internal/cost"
	"hap/internal/graph"
	"hap/internal/hapopt"
	"hap/internal/models"
	"hap/internal/synth"
)

// perGPU is the benchmark's plan_balance cluster (bench/inputs.go): V100,
// P100, A100 and P100 machines with n GPUs each, one device per GPU.
func perGPU(n int) *cluster.Cluster {
	return cluster.FromGPUs(cluster.DefaultNetwork(),
		cluster.MachineSpec{Type: cluster.V100, GPUs: n}, cluster.MachineSpec{Type: cluster.P100, GPUs: n},
		cluster.MachineSpec{Type: cluster.A100, GPUs: n}, cluster.MachineSpec{Type: cluster.P100, GPUs: n})
}

// firstModel is the cost model of Q⁽¹⁾, searched at B⁽⁰⁾ — the LP the Q↔B
// loop solves first on that input.
func firstModel(tb testing.TB, g *graph.Graph, c *cluster.Cluster, segments int) *cost.Model {
	tb.Helper()
	res, err := hapopt.Optimize(context.Background(), g, c, hapopt.Options{Segments: segments, SkipBalance: true, Synth: synth.Auto()})
	if err != nil {
		tb.Fatalf("Optimize: %v", err)
	}
	return cost.Extract(c, res.Program)
}

func bert4pg16(tb testing.TB) *cost.Model {
	cfg, c := models.BERTBase(), perGPU(4)
	cfg.Layers = 4
	return firstModel(tb, models.Training(models.BERT(cfg, 64*c.TotalGPUs()*cfg.SeqLen)), c, 4)
}

func mlppg32(tb testing.TB) *cost.Model {
	c := perGPU(8)
	return firstModel(tb, models.Training(models.MLP(64*c.TotalGPUs(), 1024, 4096, 4096, 4096, 1024, 10)), c, 4)
}

// BenchmarkRatiosFromModel is one ratio-LP solve on the two shapes of the
// plan_balance workload: 16 and 32 devices in 3 classes × 4 segments (34
// variables over 70 rows, and 26 over 46).
func BenchmarkRatiosFromModel(b *testing.B) {
	for _, tc := range []struct {
		name  string
		model func(testing.TB) *cost.Model
	}{{"bert4_pg16_seg4", bert4pg16}, {"mlp_pg32_seg4", mlppg32}} {
		b.Run(tc.name, func(b *testing.B) {
			model := tc.model(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := balance.RatiosFromModel(model); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// One solve allocates a handful of slabs — the problem's three arrays as they
// grow, the tableau's scratch, the answer — not a map and a slice per
// constraint row (about 1 500 allocations on this model before the tableau
// became one slab). The tableau itself (95 KiB here) is the slab the previous
// solve handed back, so a warm solve allocates kilobytes.
func TestSolveAllocs(t *testing.T) {
	model := bert4pg16(t)
	solve := func() {
		if _, err := balance.RatiosFromModel(model); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(5, solve)
	if allocs > 40 {
		t.Errorf("RatiosFromModel on 16 devices × 4 segments: %v allocations, want at most 40", allocs)
	}

	const runs = 40
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		solve()
	}
	runtime.ReadMemStats(&after)
	perSolve := (after.TotalAlloc - before.TotalAlloc) / runs
	if perSolve > 256<<10 {
		t.Errorf("RatiosFromModel on 16 devices × 4 segments: %d bytes per warm solve, want at most %d", perSolve, 256<<10)
	}
	t.Logf("%v allocations, %d bytes per solve", allocs, perSolve)
}
