package passes_test

// The acceptance exemplar: on a real benchmark model (VGG19), lowering every
// gradient all-reduce into its explicit reduce-scatter + all-gather ring
// phases (what a ZeRO-style backend or per-edge emitter issues) and then
// running the default pipeline must strictly reduce the collective count,
// the modeled cost AND the simulated iteration time, while hap.Verify-level
// semantic equivalence holds at every step.

import (
	"context"
	"testing"

	"hap"
	"hap/internal/cluster"
	"hap/internal/cost"
	"hap/internal/models"
	"hap/internal/passes"
	"hap/internal/sim"
)

func TestCommFusionWinsOnVGG19(t *testing.T) {
	g := models.Build(models.ModelVGG19, 4)
	c := cluster.FromGPUs(cluster.DefaultNetwork(), cluster.MachineSpec{Type: cluster.P100, GPUs: 4})
	plan, err := hap.NewPlanner(c).Plan(context.Background(), g)
	if err != nil {
		t.Fatalf("Plan: %v", err)
	}

	lowered := plan.Program.Clone()
	nLowered, err := (passes.ExpandAllReduce{}).Run(lowered, c)
	if err != nil {
		t.Fatal(err)
	}
	if nLowered == 0 {
		t.Fatal("VGG19 plan has no all-reduce to lower; exemplar is vacuous")
	}
	if err := lowered.Validate(); err != nil {
		t.Fatalf("lowered program ill-formed: %v", err)
	}
	countBefore := lowered.NumComms()
	costBefore := cost.Evaluate(c, lowered, plan.Ratios)
	noNoise := sim.Options{NoiseSigma: -1, Seed: 1}
	simBefore := sim.Run(c, lowered, plan.Ratios, noNoise).Time

	st, err := passes.Default().Run(lowered, c)
	if err != nil {
		t.Fatalf("pipeline: %v", err)
	}
	if got := st.ChangedBy("comm-fusion"); got != nLowered {
		t.Errorf("comm-fusion fused %d pairs, want all %d lowered all-reduces", got, nLowered)
	}
	countAfter := lowered.NumComms()
	if countAfter >= countBefore {
		t.Errorf("CollectiveCount did not strictly decrease: %d → %d", countBefore, countAfter)
	}
	costAfter := cost.Evaluate(c, lowered, plan.Ratios)
	if costAfter >= costBefore {
		t.Errorf("modeled cost did not strictly decrease: %.6f → %.6f s", costBefore, costAfter)
	}
	simAfter := sim.Run(c, lowered, plan.Ratios, noNoise).Time
	if simAfter >= simBefore {
		t.Errorf("simulated iteration time did not strictly decrease: %.6f → %.6f s", simBefore, simAfter)
	}
	// The fused program must match the synthesizer's direct all-reduce form:
	// no extra collectives relative to the never-lowered plan.
	if direct := plan.Program.NumComms(); countAfter != direct {
		t.Errorf("fused program has %d collectives, the direct plan %d", countAfter, direct)
	}
	t.Logf("VGG19: %d collectives → %d; modeled %.2f → %.2f ms; simulated %.2f → %.2f ms",
		countBefore, countAfter, costBefore*1e3, costAfter*1e3, simBefore*1e3, simAfter*1e3)
}

// TestPlannerPlanIsPipelineFixedPoint pins why the planner only prunes: the
// synthesizer never communicates a tensor twice, so the default pipeline
// finds nothing to fuse, deduplicate or remove in a plan it hands out.
func TestPlannerPlanIsPipelineFixedPoint(t *testing.T) {
	g := models.MLP(16, 8, 4)
	c := cluster.FromGPUs(cluster.DefaultNetwork(),
		cluster.MachineSpec{Type: cluster.V100, GPUs: 1},
		cluster.MachineSpec{Type: cluster.P100, GPUs: 1})
	plan, err := hap.NewPlanner(c).Plan(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	p := plan.Program.Clone()
	st, err := passes.Default().Run(p, c)
	if err != nil {
		t.Fatal(err)
	}
	if st.Changed != 0 || p.String() != plan.Program.String() {
		t.Errorf("pipeline rewrote a planned program %d times", st.Changed)
	}
}
