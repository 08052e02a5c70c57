package lp

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func solveOrFatal(t *testing.T, p *Problem) *Result {
	t.Helper()
	r, err := p.Solve()
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	return r
}

func TestSimpleMaximizationAsMin(t *testing.T) {
	// max 3x+2y s.t. x+y ≤ 4, x ≤ 2  →  min -3x-2y; optimum x=2, y=2, obj -10.
	p := NewProblem()
	x := p.AddVar(-3)
	y := p.AddVar(-2)
	p.AddConstraint([]Term{{x, 1}, {y, 1}}, LE, 4)
	p.AddConstraint([]Term{{x, 1}}, LE, 2)
	r := solveOrFatal(t, p)
	if math.Abs(r.X[x]-2) > 1e-7 || math.Abs(r.X[y]-2) > 1e-7 {
		t.Errorf("x=%v y=%v, want 2,2", r.X[x], r.X[y])
	}
	if math.Abs(r.Objective+10) > 1e-7 {
		t.Errorf("objective %v, want -10", r.Objective)
	}
}

func TestEqualityAndGE(t *testing.T) {
	// min x+y s.t. x+y = 1, x ≥ 0.3 → x=0.3..1; objective 1 regardless.
	p := NewProblem()
	x := p.AddVar(1)
	y := p.AddVar(1)
	p.AddConstraint([]Term{{x, 1}, {y, 1}}, EQ, 1)
	p.AddConstraint([]Term{{x, 1}}, GE, 0.3)
	r := solveOrFatal(t, p)
	if math.Abs(r.Objective-1) > 1e-7 {
		t.Errorf("objective %v, want 1", r.Objective)
	}
	if r.X[x] < 0.3-1e-7 {
		t.Errorf("x=%v violates x ≥ 0.3", r.X[x])
	}
}

func TestInfeasible(t *testing.T) {
	p := NewProblem()
	x := p.AddVar(1)
	p.AddConstraint([]Term{{x, 1}}, LE, 1)
	p.AddConstraint([]Term{{x, 1}}, GE, 2)
	if _, err := p.Solve(); !errors.Is(err, ErrInfeasible) {
		t.Errorf("Solve: %v, want ErrInfeasible", err)
	}
}

func TestUnbounded(t *testing.T) {
	p := NewProblem()
	x := p.AddVar(-1) // maximize x with no upper bound
	p.AddConstraint([]Term{{x, 1}}, GE, 0)
	if _, err := p.Solve(); !errors.Is(err, ErrUnbounded) {
		t.Errorf("Solve: %v, want ErrUnbounded", err)
	}
}

func TestNegativeRHSNormalization(t *testing.T) {
	// min x s.t. -x ≤ -2  ⇔  x ≥ 2.
	p := NewProblem()
	x := p.AddVar(1)
	p.AddConstraint([]Term{{x, -1}}, LE, -2)
	r := solveOrFatal(t, p)
	if math.Abs(r.X[x]-2) > 1e-7 {
		t.Errorf("x=%v, want 2", r.X[x])
	}
}

// The load balancer's LP shape (Sec. 5.1): min Σ tᵢ + c·M subject to
// tᵢ ≥ aᵢⱼBⱼ, M ≥ Bⱼ, ΣBⱼ = 1. With two devices of speeds 2:1 and no comm
// term, the optimum balances compute: B = (2/3, 1/3).
func TestShardingRatioShape(t *testing.T) {
	p := NewProblem()
	b1 := p.AddVar(0)
	b2 := p.AddVar(0)
	tv := p.AddVar(1)
	// t ≥ 1.0·B1 (slow device has a=1), t ≥ 0.5·B2? — speeds 1 and 2:
	// time on dev1 = B1/1, dev2 = B2/2.
	p.AddConstraint([]Term{{tv, 1}, {b1, -1}}, GE, 0)
	p.AddConstraint([]Term{{tv, 1}, {b2, -0.5}}, GE, 0)
	p.AddConstraint([]Term{{b1, 1}, {b2, 1}}, EQ, 1)
	r := solveOrFatal(t, p)
	if math.Abs(r.X[b1]-1.0/3) > 1e-6 || math.Abs(r.X[b2]-2.0/3) > 1e-6 {
		t.Errorf("B = (%v, %v), want (1/3, 2/3)", r.X[b1], r.X[b2])
	}
}

func TestDegenerateNoConstraints(t *testing.T) {
	p := NewProblem()
	x := p.AddVar(1)
	r := solveOrFatal(t, p)
	if r.X[x] != 0 {
		t.Errorf("x=%v, want 0", r.X[x])
	}
}

// Property: on random bounded-feasible LPs, the simplex solution satisfies
// all constraints and is no worse than a random feasible sample.
func TestQuickSimplexOptimality(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(3)
		p := NewProblem()
		c := make([]float64, n)
		for j := 0; j < n; j++ {
			c[j] = rng.Float64()*2 - 0.5
			p.AddVar(c[j])
		}
		// Box: xⱼ ≤ u (keeps it bounded), plus a coupling row Σx ≥ 1.
		for j := 0; j < n; j++ {
			p.AddConstraint([]Term{{j, 1}}, LE, 1+rng.Float64())
		}
		all := make([]Term, n)
		for j := range all {
			all[j] = Term{j, 1}
		}
		p.AddConstraint(all, GE, 1)
		r, err := p.Solve()
		if err != nil {
			return false
		}
		// Feasibility.
		sum := 0.0
		for j := 0; j < n; j++ {
			if r.X[j] < -1e-7 {
				return false
			}
			sum += r.X[j]
		}
		if sum < 1-1e-6 {
			return false
		}
		// Optimality vs. random feasible points.
		for trial := 0; trial < 20; trial++ {
			x := make([]float64, n)
			total := 0.0
			for j := 0; j < n; j++ {
				x[j] = rng.Float64()
				total += x[j]
			}
			if total < 1 {
				continue
			}
			obj := 0.0
			for j := 0; j < n; j++ {
				obj += c[j] * x[j]
			}
			if obj < r.Objective-1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
