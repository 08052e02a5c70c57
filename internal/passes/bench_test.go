package passes_test

import (
	"context"
	"testing"

	"hap"
	"hap/internal/cluster"
	"hap/internal/models"
	"hap/internal/passes"
)

// BenchmarkPipelineVGG19 measures the default pipeline on the lowered VGG19
// plan — the worst realistic input (every gradient all-reduce expanded into
// its ring phases). Synthesis happens once outside the loop; the benchmark
// times lowering + fusion + CSE + DCE + validation per iteration.
func BenchmarkPipelineVGG19(b *testing.B) {
	g := models.Build(models.ModelVGG19, 4)
	c := cluster.FromGPUs(cluster.DefaultNetwork(), cluster.MachineSpec{Type: cluster.P100, GPUs: 4})
	plan, err := hap.NewPlanner(c).Plan(context.Background(), g)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := plan.Program.Clone()
		if _, err := (passes.ExpandAllReduce{}).Run(p, c); err != nil {
			b.Fatal(err)
		}
		st, err := passes.Default().Run(p, c)
		if err != nil {
			b.Fatal(err)
		}
		if st.Changed == 0 {
			b.Fatal("pipeline fused nothing")
		}
	}
}
