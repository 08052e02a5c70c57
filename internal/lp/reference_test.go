package lp

import (
	"fmt"
	"math"
)

// referenceSolve is the dense two-phase simplex this package shipped before
// the tableau went sparse-aware, kept verbatim (reduced costs recomputed from
// scratch per scanned column, every pivot sweeping whole rows, one slice per
// row) as the oracle TestMatchesReference compares Solve against. Only how it
// reads the problem's rows, the sentinel errors and the onPivot hook differ
// from the original.
func (p *Problem) referenceSolve(perturb float64, onPivot func(row, col int)) (*Result, error) {
	n := len(p.objective)
	mRows := len(p.rows)

	// Normalize to equalities with slack/surplus, RHS ≥ 0, then add
	// artificials for rows lacking an obvious basic variable.
	type row struct {
		coefs []float64
		rhs   float64
		op    Op
	}
	rows := make([]row, mRows)
	numSlacks := 0
	for i, c := range p.rows {
		scale := 1.0 + math.Abs(c.rhs)
		r := row{coefs: make([]float64, n), rhs: c.rhs + perturb*scale*float64(i+1)/float64(mRows+1), op: c.op}
		for _, tm := range p.terms[c.start:c.end] {
			r.coefs[tm.Var] = tm.Coef
		}
		if r.rhs < 0 { // flip to make RHS non-negative
			for k := range r.coefs {
				r.coefs[k] = -r.coefs[k]
			}
			r.rhs = -r.rhs
			switch r.op {
			case LE:
				r.op = GE
			case GE:
				r.op = LE
			}
		}
		if r.op != EQ {
			numSlacks++
		}
		rows[i] = r
	}

	// Column layout: [x (n)] [slacks] [artificials] | rhs.
	totalCols := n + numSlacks + mRows // upper bound on artificials
	tab := make([][]float64, mRows)
	basis := make([]int, mRows)
	slackCol := n
	artCol := n + numSlacks
	numArts := 0
	for i := range rows {
		tab[i] = make([]float64, totalCols+1)
		copy(tab[i], rows[i].coefs)
		tab[i][totalCols] = rows[i].rhs
		switch rows[i].op {
		case LE:
			tab[i][slackCol] = 1
			basis[i] = slackCol
			slackCol++
		case GE:
			tab[i][slackCol] = -1
			slackCol++
			tab[i][artCol] = 1
			basis[i] = artCol
			artCol++
			numArts++
		case EQ:
			tab[i][artCol] = 1
			basis[i] = artCol
			artCol++
			numArts++
		}
	}
	usedCols := artCol

	pivot := func(r, c int) {
		if onPivot != nil {
			onPivot(r, c)
		}
		pv := tab[r][c]
		for j := 0; j <= totalCols; j++ {
			tab[r][j] /= pv
		}
		for i := range tab {
			if i == r || math.Abs(tab[i][c]) < eps {
				continue
			}
			f := tab[i][c]
			for j := 0; j <= totalCols; j++ {
				tab[i][j] -= f * tab[r][j]
			}
		}
		basis[r] = c
	}

	// simplex minimizes obj over the current tableau. allowed bounds the
	// columns eligible to enter. Bland's rule on both the entering column
	// (smallest index with negative reduced cost) and the leaving row
	// (smallest basis index among exact min-ratio rows) prevents cycling.
	simplex := func(obj []float64, allowed int) error {
		for iter := 0; iter < 200000; iter++ {
			entering := -1
			for j := 0; j < allowed; j++ {
				z := obj[j]
				for i := range tab {
					if b := basis[i]; b < len(obj) && obj[b] != 0 {
						z -= obj[b] * tab[i][j]
					}
				}
				if z < -enterEps {
					entering = j // Bland: first eligible column
					break
				}
			}
			if entering == -1 {
				return nil
			}
			// Exact minimum ratio first, then Bland tie-break.
			minRatio := math.Inf(1)
			for i := range tab {
				if tab[i][entering] > eps {
					if r := tab[i][totalCols] / tab[i][entering]; r < minRatio {
						minRatio = r
					}
				}
			}
			if math.IsInf(minRatio, 1) {
				return ErrUnbounded
			}
			leaving := -1
			for i := range tab {
				if tab[i][entering] > eps {
					r := tab[i][totalCols] / tab[i][entering]
					if r <= minRatio+eps && (leaving == -1 || basis[i] < basis[leaving]) {
						leaving = i
					}
				}
			}
			pivot(leaving, entering)
		}
		return ErrIterationLimit
	}

	// Phase 1: minimize the sum of artificials.
	if numArts > 0 {
		phase1 := make([]float64, usedCols)
		for j := n + numSlacks; j < usedCols; j++ {
			phase1[j] = 1
		}
		if err := simplex(phase1, usedCols); err != nil {
			return nil, err
		}
		infeas := 0.0
		for i := range tab {
			if basis[i] >= n+numSlacks {
				infeas += tab[i][totalCols]
			}
		}
		if infeas > 1e-6 {
			return nil, fmt.Errorf("%w (residual %g)", ErrInfeasible, infeas)
		}
		// Drive artificials out of the basis where possible.
		for i := range tab {
			if basis[i] < n+numSlacks {
				continue
			}
			for j := 0; j < n+numSlacks; j++ {
				if math.Abs(tab[i][j]) > eps {
					pivot(i, j)
					break
				}
			}
		}
	}

	// Phase 2: minimize the real objective over structural+slack columns.
	phase2 := make([]float64, n+numSlacks)
	copy(phase2, p.objective)
	if err := simplex(phase2, n+numSlacks); err != nil {
		return nil, err
	}

	x := make([]float64, n)
	for i, b := range basis {
		if b < n {
			x[b] = tab[i][totalCols]
		}
	}
	obj := 0.0
	for j := 0; j < n; j++ {
		obj += p.objective[j] * x[j]
	}
	return &Result{X: x, Objective: obj}, nil
}
