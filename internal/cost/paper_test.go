package cost_test

import (
	"context"
	"math"
	"testing"

	"hap/internal/cluster"
	"hap/internal/cost"
	"hap/internal/models"
	"hap/internal/synth"
	"hap/internal/theory"
)

// The paper's plans priced both ways: the extracted model the ratio LP
// solves against the stage walk the beam searches, to 1e-12 relative, at
// the B⁽⁰⁾ each plan was searched under and at even ratios; at B⁽⁰⁾ the
// walk is also the cost the search reports for its plan. Paper plans
// communicate only by All-Reduce and All-To-All; TestStageModelEvalConsistent
// covers the other kinds. The two sides round differently on purpose (the
// model folds each collective into constant and max-ratio coefficients), so
// they are never held to equal bits.
func TestStageModelMatchesSearchObjective(t *testing.T) {
	clusters := []struct {
		name string
		c    *cluster.Cluster
	}{
		{"het8", cluster.PaperHeterogeneous(1)},
		{"hom4", cluster.PaperHomogeneous(2)},
		{"a1p1", cluster.PaperA100P100()},
	}
	for _, model := range []models.PaperModel{models.ModelVGG19, models.ModelViT, models.ModelBERTBase, models.ModelBERTMoE} {
		for _, cl := range clusters {
			c := cl.c
			t.Run(string(model)+"/"+cl.name, func(t *testing.T) {
				g := models.Build(model, c.TotalGPUs())
				b0 := cost.UniformRatios(g.NumSegments(), c.ProportionalRatios())
				p, stats, err := synth.Synthesize(context.Background(), g, theory.New(g), c, b0, synth.Options{BeamWidth: 48})
				if err != nil {
					t.Fatal(err)
				}
				if walk := cost.StageWalk(c, p, b0); math.Abs(stats.Cost-walk) > 1e-12*walk {
					t.Errorf("search cost %v, stage walk %v", stats.Cost, walk)
				}
				m := cost.Extract(c, p)
				if len(m.Charges) != 0 {
					t.Fatalf("%d boundary charges: the search prices none", len(m.Charges))
				}
				for _, b := range [][][]float64{b0, cost.UniformRatios(g.NumSegments(), c.EvenRatios())} {
					got, want := m.Eval(b), cost.StageWalk(c, p, b)
					if math.Abs(got-want) > 1e-12*want {
						t.Errorf("Eval = %v, stage walk = %v (relative %.1e) at B = %v", got, want, math.Abs(got-want)/want, b[0])
					}
				}
			})
		}
	}
}
