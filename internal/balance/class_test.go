package balance_test

import (
	"fmt"
	"math"
	"testing"

	"hap/internal/balance"
	"hap/internal/cluster"
	"hap/internal/cost"
	"hap/internal/models"
)

// paperModel is the ratio LP the Q↔B loop solves first for paper model m
// on cluster c.
func paperModel(tb testing.TB, m models.PaperModel, c *cluster.Cluster) *cost.Model {
	return firstModel(tb, models.Build(m, c.TotalGPUs()), c, 0)
}

// oracle1D solves a one-segment, two-class ratio LP exactly. With
// n₀·x + n₁·y = 1 the LP is the minimisation of t(x) over x ∈ [0, 1/n₀],
// convex and piecewise linear: each stage's max of two lines, plus the
// largest ratio max(x, y). Its minimum lies at a breakpoint — an end of the
// interval, x = y, or a point where a stage's two comp lines cross — so
// evaluating the model there is the exact optimum.
func oracle1D(model *cost.Model) float64 {
	n0, n1 := float64(model.Size[0]), float64(model.Size[1])
	at := func(x float64) [][]float64 {
		y := (1 - n0*x) / n1
		b := make([]float64, len(model.Class))
		for j, c := range model.Class {
			b[j] = x
			if c == 1 {
				b[j] = y
			}
		}
		return [][]float64{b}
	}
	xs := []float64{0, 1 / n0, 1 / (n0 + n1)}
	for i := range model.Stages {
		sm := &model.Stages[i]
		a0, k0 := sm.CompConst[0], sm.CompCoef[0][0]
		a1, k1 := sm.CompConst[1], sm.CompCoef[0][1]
		// a0 + k0·x = a1 + k1·(1 − n0·x)/n1
		if den := k0 + k1*n0/n1; den != 0 {
			if x := (a1 + k1/n1 - a0) / den; x > 0 && x < 1/n0 {
				xs = append(xs, x)
			}
		}
	}
	best := math.Inf(1)
	for _, x := range xs {
		best = math.Min(best, model.Eval(at(x)))
	}
	return best
}

// checkSolution asserts what RatiosFromModel promises of any model: a
// solution, Σ B = 1 per segment, B ≥ 0, one value per class — and, for one
// segment and two classes, the exact optimum to 1e-9 relative.
func checkSolution(t *testing.T, model *cost.Model) {
	t.Helper()
	b, err := balance.RatiosFromModel(model)
	if err != nil {
		t.Fatalf("RatiosFromModel: %v", err)
	}
	for k := range b {
		sum := 0.0
		for j, v := range b[k] {
			if v < 0 {
				t.Errorf("B[%d][%d] = %v < 0", k, j, v)
			}
			sum += v
			for i := 0; i < j; i++ {
				if model.Class[i] == model.Class[j] && b[k][i] != b[k][j] {
					t.Errorf("B[%d]: devices %d and %d share class %d but get %v and %v", k, i, j, model.Class[j], b[k][i], b[k][j])
				}
			}
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("segment %d ratios sum to %v", k, sum)
		}
	}
	if model.Segments == 1 && len(model.Size) == 2 {
		got, want := model.Eval(b), oracle1D(model)
		if math.Abs(got-want) > 1e-9*want {
			t.Errorf("t(B) = %.15g, exact optimum %.15g (relative gap %.3g)", got, want, (got-want)/want)
		}
	}
}

// TestFormerlyFailingLPs are the seven headline LPs the per-device
// formulation reported unbounded: its tableau carried one identical column
// per device of a type, and the simplex lost its way among their ties.
func TestFormerlyFailingLPs(t *testing.T) {
	for _, tc := range []struct {
		m models.PaperModel
		k int
	}{
		{models.ModelVGG19, 2}, {models.ModelVGG19, 4}, {models.ModelVGG19, 8},
		{models.ModelViT, 1},
		{models.ModelBERTMoE, 2}, {models.ModelBERTMoE, 4}, {models.ModelBERTMoE, 8},
	} {
		t.Run(fmt.Sprintf("%s/het%d", tc.m, 8*tc.k), func(t *testing.T) {
			if _, err := balance.RatiosFromModel(paperModel(t, tc.m, cluster.PaperHeterogeneous(tc.k))); err != nil {
				t.Errorf("RatiosFromModel: %v", err)
			}
		})
	}
}

// TestRatioLPMatchesOracle holds the LP to the exact one-dimensional
// optimum on every one-segment, two-class model of the paper's inputs: the
// sixteen heterogeneous headline rows and each model on the A100+P100
// testbed.
func TestRatioLPMatchesOracle(t *testing.T) {
	clusters := map[string]*cluster.Cluster{"a100p100": cluster.PaperA100P100()}
	for _, k := range []int{1, 2, 4, 8} {
		clusters[fmt.Sprintf("het%d", 8*k)] = cluster.PaperHeterogeneous(k)
	}
	for _, m := range models.AllPaperModels {
		for name, c := range clusters {
			t.Run(fmt.Sprintf("%s/%s", m, name), func(t *testing.T) {
				model := paperModel(t, m, c)
				if model.Segments != 1 || len(model.Size) != 2 {
					t.Fatalf("%d segments, %d classes; want 1 and 2", model.Segments, len(model.Size))
				}
				checkSolution(t, model)
			})
		}
	}
}

// fuzzModel decodes bytes into a one-segment ratio LP: 2–8 devices in at
// most 3 classes and 1–96 stages whose coefficients span 1e-10…1e1 (the
// span the paper's models reach), or are zero. Missing bytes read as zero.
//
//	devices-2 · classes-1 · class of each device · stages-1 ·
//	per stage: CommConst, CommMaxCoef, then per class CompConst, CompCoef
//
// A device's class byte is taken modulo the class count, and classes no
// device falls in are dropped, the rest numbered in order of first
// appearance as cost.Classes numbers them. A coefficient byte v is 0 for 0,
// else 10^(−10 + 11·(v−1)/254).
func fuzzModel(data []byte) *cost.Model {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		v := data[0]
		data = data[1:]
		return v
	}
	coef := func() float64 {
		v := next()
		if v == 0 {
			return 0
		}
		return math.Pow(10, -10+11*float64(v-1)/254)
	}
	m := 2 + int(next())%7
	classes := 1 + int(next())%3
	model := &cost.Model{Segments: 1, Class: make([]int, m)}
	number := []int{-1, -1, -1}
	for j := range model.Class {
		c := int(next()) % classes
		if number[c] < 0 {
			number[c] = len(model.Size)
			model.Size = append(model.Size, 0)
		}
		model.Class[j] = number[c]
		model.Size[number[c]]++
	}
	nc := len(model.Size)
	model.Cluster = &cluster.Cluster{Net: cluster.DefaultNetwork(), Devices: make([]cluster.VirtualDevice, m)}
	model.Stages = make([]cost.StageModel, 1+int(next())%96)
	for i := range model.Stages {
		sm := &model.Stages[i]
		sm.CommConst, sm.CommMaxCoef = coef(), coef()
		sm.CompConst, sm.CompCoef = make([]float64, nc), [][]float64{make([]float64, nc)}
		for c := 0; c < nc; c++ {
			sm.CompConst[c], sm.CompCoef[0][c] = coef(), coef()
		}
	}
	return model
}

// FuzzRatioLP holds the class LP, on models of the balancer's shape and
// span, to a solution that sums to one, is equal within a class, and is the
// exact optimum wherever there are two classes.
func FuzzRatioLP(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		checkSolution(t, fuzzModel(data))
	})
}
