package hapopt

import (
	"context"
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
// arm) whatever MaxIterations allows.
func loopInput(workers int) (*graph.Graph, *cluster.Cluster, Options) {
	c := cluster.PaperHeterogeneous(1)
	return models.Build(models.ModelBERTMoE, c.TotalGPUs()), c,
		Options{MaxIterations: 2, Synth: synth.Options{BeamWidth: 48, Workers: workers}}
}

// BenchmarkOptimizeLoop measures the full Q↔B alternation on loopInput, the
// end-to-end number hap-serve pays per cache miss, for profiling.
func BenchmarkOptimizeLoop(b *testing.B) {
	g, c, opt := loopInput(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Optimize(context.Background(), g, c, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// TestOptimizeAllocationPin holds one whole Optimize on loopInput at
// Workers=1 to its pinned allocation count + 25 %. The count is exact run to
// run: each arm's search is serial and deterministic. Synth's
// TestSearchAllocationPin holds the searches alone; this row adds segment
// assignment, both theories, the arms' goroutines, cost extraction and the
// ratio LP.
func TestOptimizeAllocationPin(t *testing.T) {
	const pinned = 11812
	g, c, opt := loopInput(1)
	got := testing.AllocsPerRun(2, func() {
		if _, err := Optimize(context.Background(), g, c, opt); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("Optimize on BERT-MoE: %.0f allocs (pinned %d)", got, pinned)
	if limit := 1.25 * pinned; got > limit {
		t.Errorf("Optimize on BERT-MoE at Workers=1: %.0f allocs, want at most %.0f (pinned %d + 25%%)", got, limit, pinned)
	}
}
