package hapopt

import (
	"context"
	"testing"

	"hap/internal/cluster"
	"hap/internal/models"
	"hap/internal/synth"
)

// BenchmarkOptimizeLoop measures the full Q↔B alternation on the paper's
// BERT-MoE workload — the portfolio case, where the base and the
// expert-restricted theories search concurrently. This is the end-to-end
// number hap-serve pays per cache miss. On this cluster the balancer moves B
// only by round-off, so the loop converges after one iteration (two searches,
// one per arm) whatever MaxIterations allows.
func BenchmarkOptimizeLoop(b *testing.B) {
	c := cluster.PaperHeterogeneous(1)
	g := models.Build(models.ModelBERTMoE, c.TotalGPUs())
	opt := Options{MaxIterations: 2, Synth: synth.Options{BeamWidth: 48}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Optimize(context.Background(), g, c, opt); err != nil {
			b.Fatal(err)
		}
	}
}
