// Package balance implements HAP's load balancer (Sec. 5): given a fixed
// distributed program Q, it finds the sharding ratios B minimizing the
// stage-based cost model by solving a linear program,
//
//	min  Σᵢ ( commᵢ(B) + tᵢ )
//	s.t. tᵢ ≥ comp_{i,c}(B),       ∀ stages i, device classes c
//	     M_k ≥ B_{k,c},            ∀ segments k, device classes c
//	     Σ_c |c|·B_{k,c} = 1,      ∀ segments k
//	     B ≥ 0,
//
// where commᵢ is linear in M_{seg(i)} (padded collectives bottleneck on the
// largest shard), comp is linear in B, and a device class c (cost.Classes)
// is the |c| devices the cost model cannot tell apart, which share one
// ratio. Fractional ratios are converted to integer shard sizes with the
// paper's rounding scheme (implemented in collective.ShardSizes).
package balance

import (
	"fmt"

	"hap/internal/cluster"
	"hap/internal/cost"
	"hap/internal/dist"
	"hap/internal/lp"
)

// Ratios solves for the optimal sharding-ratio matrix B[segment][device]
// of program p on cluster c.
func Ratios(c *cluster.Cluster, p *dist.Program) ([][]float64, error) {
	model := cost.Extract(c, p)
	return RatiosFromModel(model)
}

// RatiosFromModel solves the LP over an already-extracted cost model, with
// one B variable per device class rather than per device. Devices of one
// class have identical columns in every row, so the LP is symmetric under
// permuting them; it is convex, so a symmetric optimum exists, and the LP
// over classes finds it exactly: class c weighs Size[c] in Σ B = 1 and
// needs one M ≥ B row. Each device gets its class's value.
func RatiosFromModel(model *cost.Model) ([][]float64, error) {
	m := model.Cluster.M()
	g := model.Segments
	if m == 1 {
		return cost.UniformRatios(g, []float64{1}), nil
	}
	nc := len(model.Size)

	// M_k's objective is Σ of the CommMaxCoef of segment k's stages and half
	// of each boundary charge touching k: known before any variable is added.
	objM := make([]float64, g)
	for i := range model.Stages {
		sm := &model.Stages[i]
		objM[sm.CommSeg] += sm.CommMaxCoef
	}
	for i := range model.Charges {
		ch := &model.Charges[i]
		objM[ch.SegA] += ch.Coef / 2
		objM[ch.SegB] += ch.Coef / 2
	}

	prob := lp.NewProblem()
	stages := len(model.Stages)
	prob.Reserve(g*nc+g+stages, stages*nc+g*nc+g, stages*nc*(g+1)+3*g*nc)
	// Variables: B[k][c], M[k], t[i].
	bVar := make([]int, g*nc) // B[k][c] is bVar[k*nc+c]
	for i := range bVar {
		bVar[i] = prob.AddVar(0)
	}
	mVar := make([]int, g)
	for k := range mVar {
		mVar[k] = prob.AddVar(objM[k])
	}

	// Objective: Σ stages (CommMaxCoef·M_seg + t_i) + boundary charges;
	// t_i ≥ comp_{i,c}(B) for every class c.
	row := make([]lp.Term, 0, max(g, nc)+1) // reused: AddConstraint copies
	for i := range model.Stages {
		sm := &model.Stages[i]
		tv := prob.AddVar(1)
		for c := 0; c < nc; c++ {
			row = append(row[:0], lp.Term{Var: tv, Coef: 1})
			for k := 0; k < g; k++ {
				if sm.CompCoef[k][c] != 0 {
					row = append(row, lp.Term{Var: bVar[k*nc+c], Coef: -sm.CompCoef[k][c]})
				}
			}
			prob.AddConstraint(row, lp.GE, sm.CompConst[c])
		}
	}

	// M_k ≥ B_{k,c}; Σ_c Size[c]·B_{k,c} = 1.
	for k := 0; k < g; k++ {
		for c := 0; c < nc; c++ {
			prob.AddConstraint(append(row[:0], lp.Term{Var: mVar[k], Coef: 1}, lp.Term{Var: bVar[k*nc+c], Coef: -1}), lp.GE, 0)
		}
		row = row[:0]
		for c := 0; c < nc; c++ {
			row = append(row, lp.Term{Var: bVar[k*nc+c], Coef: float64(model.Size[c])})
		}
		prob.AddConstraint(row, lp.EQ, 1)
	}

	res, err := prob.Solve()
	if err != nil {
		return nil, fmt.Errorf("balance: %w", err)
	}
	out := make([][]float64, g)
	for k := 0; k < g; k++ {
		out[k] = make([]float64, m)
		total := 0.0
		for j, c := range model.Class {
			v := res.X[bVar[k*nc+c]]
			if v < 0 {
				v = 0
			}
			out[k][j] = v
			total += v
		}
		// Numerical cleanup: renormalize to exactly 1.
		if total > 0 {
			for j := 0; j < m; j++ {
				out[k][j] /= total
			}
		} else {
			for j := 0; j < m; j++ {
				out[k][j] = 1 / float64(m)
			}
		}
	}
	return out, nil
}
