// Package balance implements HAP's load balancer (Sec. 5): given a fixed
// distributed program Q, it finds the sharding ratios B minimizing the
// stage-based cost model by solving a linear program,
//
//	min  Σᵢ ( commᵢ(B) + tᵢ )
//	s.t. tᵢ ≥ comp_{i,j}(B),   ∀ stages i, devices j
//	     M_k ≥ B_{k,j},        ∀ segments k, devices j
//	     Σⱼ B_{k,j} = 1,       ∀ segments k
//	     B ≥ 0,
//
// where commᵢ is linear in M_{seg(i)} (padded collectives bottleneck on the
// largest shard) and comp is linear in B. Fractional ratios are converted to
// integer shard sizes with the paper's rounding scheme (implemented in
// collective.ShardSizes).
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

// RatiosFromModel solves the LP over an already-extracted cost model.
func RatiosFromModel(model *cost.Model) ([][]float64, error) {
	m := model.Cluster.M()
	g := model.Segments
	if m == 1 {
		return cost.UniformRatios(g, []float64{1}), nil
	}

	prob := lp.NewProblem()
	stages := len(model.Stages)
	prob.Reserve(g*m+2*g+stages, stages*m+g*m+2*g, stages*m*(g+1)+3*g*m+2*g)
	// Variables: B[k][j], M[k], t[i].
	bVar := make([][]int, g)
	for k := 0; k < g; k++ {
		bVar[k] = make([]int, m)
		for j := 0; j < m; j++ {
			bVar[k][j] = prob.AddVar(0)
		}
	}
	mVar := make([]int, g)
	for k := 0; k < g; k++ {
		mVar[k] = prob.AddVar(0)
	}

	// Objective: Σ stages (CommMaxCoef·M_seg + t_i) + boundary charges.
	objM := make([]float64, g)
	row := make([]lp.Term, 0, m+1) // reused: AddConstraint copies
	for i := range model.Stages {
		sm := &model.Stages[i]
		objM[sm.CommSeg] += sm.CommMaxCoef
		tv := prob.AddVar(1)
		for j := 0; j < m; j++ {
			row = append(row[:0], lp.Term{Var: tv, Coef: 1})
			for k := 0; k < g; k++ {
				if sm.CompCoef[k][j] != 0 {
					row = append(row, lp.Term{Var: bVar[k][j], Coef: -sm.CompCoef[k][j]})
				}
			}
			prob.AddConstraint(row, lp.GE, sm.CompConst[j])
		}
	}
	for i := range model.Charges {
		ch := &model.Charges[i]
		objM[ch.SegA] += ch.Coef / 2
		objM[ch.SegB] += ch.Coef / 2
	}
	// The LP API fixes objective coefficients at AddVar time and M's is only
	// known now, so M_k gets it through a proxy variable: proxy = M_k with
	// objective objM[k]. The proxy stays even though it could be folded away:
	// removing it renumbers the columns Bland's rule walks, which moves the
	// solver to another of the LP's alternate optima (see DESIGN.md).
	for k := 0; k < g; k++ {
		if objM[k] == 0 {
			continue
		}
		proxy := prob.AddVar(objM[k])
		prob.AddConstraint(append(row[:0], lp.Term{Var: proxy, Coef: 1}, lp.Term{Var: mVar[k], Coef: -1}), lp.EQ, 0)
	}

	// M_k ≥ B_{k,j}; Σ_j B_{k,j} = 1.
	for k := 0; k < g; k++ {
		for j := 0; j < m; j++ {
			prob.AddConstraint(append(row[:0], lp.Term{Var: mVar[k], Coef: 1}, lp.Term{Var: bVar[k][j], Coef: -1}), lp.GE, 0)
		}
		row = row[:0]
		for j := 0; j < m; j++ {
			row = append(row, lp.Term{Var: bVar[k][j], Coef: 1})
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
		for j := 0; j < m; j++ {
			v := res.X[bVar[k][j]]
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
