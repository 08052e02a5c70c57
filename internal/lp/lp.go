// Package lp implements a two-phase primal simplex solver for linear
// programs in the form
//
//	minimize    cᵀx
//	subject to  Aᵢ x {≤,=,≥} bᵢ,  x ≥ 0.
//
// It is the stand-in for the Coin CBC solver the paper uses for sharding-
// ratio optimization (Sec. 5); the ratio LPs are small (tens to hundreds of
// variables) and are solved exactly. The tableau is dense in storage but the
// ratio LPs leave ~98 % of it zero, so a pivot touches only the columns where
// the pivot row is non-zero and only the rows where the entering column is.
// Bland's rule guards against cycling.
package lp

import (
	"errors"
	"fmt"
	"math"
	"sync"
)

// Op is a constraint relation.
type Op int

// Constraint relations.
const (
	LE Op = iota // ≤
	EQ           // =
	GE           // ≥
)

// Solve's failures, matched with errors.Is.
var (
	ErrInfeasible     = errors.New("lp: infeasible")
	ErrUnbounded      = errors.New("lp: unbounded")
	ErrIterationLimit = errors.New("lp: iteration limit")
)

// Term is one coefficient of a constraint row.
type Term struct {
	Var  int
	Coef float64
}

// row is one constraint: terms[start:end] of the problem, relation and
// right-hand side.
type row struct {
	start, end int
	op         Op
	rhs        float64
}

// Problem is a linear program under construction.
type Problem struct {
	objective []float64
	terms     []Term // every row's coefficients, back to back
	rows      []row
}

// NewProblem returns an empty problem.
func NewProblem() *Problem { return &Problem{} }

// Reserve makes room for that many variables, constraints and terms in all,
// so that building the problem allocates three slabs instead of growing them.
// It is a hint: a problem may outgrow it.
func (p *Problem) Reserve(vars, rows, terms int) {
	p.objective = append(make([]float64, 0, vars), p.objective...)
	p.rows = append(make([]row, 0, rows), p.rows...)
	p.terms = append(make([]Term, 0, terms), p.terms...)
}

// AddVar introduces a variable with the given objective coefficient and
// returns its index. All variables are non-negative.
func (p *Problem) AddVar(objCoef float64) int {
	p.objective = append(p.objective, objCoef)
	return len(p.objective) - 1
}

// AddConstraint appends a constraint. Terms are copied, so the caller may
// reuse the slice; coefficients of a variable named twice add up.
func (p *Problem) AddConstraint(terms []Term, op Op, rhs float64) {
	for _, t := range terms {
		if t.Var < 0 || t.Var >= len(p.objective) {
			panic(fmt.Sprintf("lp: constraint references unknown variable %d", t.Var))
		}
	}
	start := len(p.terms)
	p.terms = append(p.terms, terms...)
	p.rows = append(p.rows, row{start: start, end: len(p.terms), op: op, rhs: rhs})
}

// Result is a solved LP.
type Result struct {
	X         []float64
	Objective float64
}

const (
	// eps is the tableau's zero: a pivot leaves a row alone whose entry in
	// the entering column is below it, and the ratio test skips such a row.
	// It is absolute, so it must sit below every coefficient the ratio LPs
	// carry and above round-off. Their coefficients are seconds per unit
	// of ratio and reach down to 1e-10 (balance's FuzzRatioLP draws that
	// span); round-off on entries of order 1–10 is about 1e-15. At 1e-9 the
	// threshold dropped real entries: on BERT-MoE × A100+P100, once the
	// planner stopped charging for dead collectives, the LP stopped 5.8e-6
	// short of the exact optimum. A threshold relative to each column was
	// the other choice; it would part the solver from the reference it is
	// held to pivot for pivot, so the absolute one was lowered instead.
	eps      = 1e-12
	enterEps = 1e-7 // noise-robust entering threshold
)

// Solve runs two-phase simplex and returns the optimum, or ErrInfeasible or
// ErrUnbounded. Highly degenerate problems that stall despite Bland's rule
// (ErrIterationLimit) are retried with a deterministic lexicographic-style
// RHS perturbation, which breaks ties at a negligible accuracy cost.
func (p *Problem) Solve() (*Result, error) {
	res, err := p.solve(0, nil)
	for _, perturb := range []float64{1e-7, 1e-5} {
		if !errors.Is(err, ErrIterationLimit) {
			break
		}
		res, err = p.solve(perturb, nil)
	}
	return res, err
}

// spare is the tableau slab one solve hands to the next: a solve re-slices
// and clears it instead of making and zeroing megabytes anew. It is one slot
// behind a mutex, not a sync.Pool, so reuse does not depend on when the GC
// last ran: a caller that solves one LP at a time misses once per size step,
// then never. A solve that finds the slot empty or too small makes its own;
// the larger slab is kept, up to maxSpare entries.
var spare struct {
	sync.Mutex
	a []float64
}

// maxSpare bounds the slab spare keeps (32 MiB): one outsized LP does not
// pin its tableau for the life of the process.
const maxSpare = 4 << 20

// takeSlab returns a zeroed slab of size entries, the spare one if it fits.
func takeSlab(size int) []float64 {
	spare.Lock()
	a := spare.a
	if cap(a) >= size {
		spare.a = nil
	} else {
		a = nil
	}
	spare.Unlock()
	if a == nil {
		return make([]float64, size)
	}
	a = a[:size]
	clear(a)
	return a
}

// keepSlab offers a slab no solve reads any more back to spare.
func keepSlab(a []float64) {
	if cap(a) > maxSpare {
		return
	}
	spare.Lock()
	if cap(a) > cap(spare.a) {
		spare.a = a
	}
	spare.Unlock()
}

// tableau is the simplex tableau as one slab: m constraint rows then the
// reduced-cost row, w entries each, the right-hand side in column w-1.
type tableau struct {
	a       []float64
	m, w    int
	basis   []int
	obj     []float64          // the phase's objective, zero past its end
	nz      []int              // scratch: the pivot row's non-zero columns
	col     []int32            // scratch: the rows gather found, ascending
	onPivot func(row, col int) // tests only
}

func (t *tableau) row(i int) []float64 { return t.a[i*t.w : (i+1)*t.w] }

// gather lists in t.col, in ascending order, the constraint rows whose entry
// in column c is non-zero: one strided pass over the slab that the ratio
// tests and pivot then share.
func (t *tableau) gather(c int) {
	col := t.col[:0]
	for i, k := 0, c; i < t.m; i, k = i+1, k+t.w {
		if t.a[k] != 0 {
			col = append(col, int32(i))
		}
	}
	t.col = col
}

// pivot makes column c basic in row r. Only the columns where the pivot row
// is non-zero are updated, in the touched rows and in the reduced-cost row:
// x −= f·0 leaves x as it was, so the skipped columns hold the bits a full
// sweep would have left (up to the sign of a zero, which nothing reads; the
// right-hand side is always swept, so X is exact to the sign too). The rows
// visited are those t.col lists, which the caller gathers for column c: a row
// with a zero there would subtract 0·pr and add obj·0 to the multiplier, so
// skipping it changes no value either.
//
// Rows whose entry in column c is below eps are left alone, so the tableau
// drifts off exact row-equivalence by those entries. The reduced-cost row
// follows the tableau as it is, not as it should be — it stays what pricing
// from scratch would give — by taking the costs of the rows left alone out of
// its own multiplier.
func (t *tableau) pivot(r, c int) {
	if t.onPivot != nil {
		t.onPivot(r, c)
	}
	pr, rhs := t.row(r), t.w-1
	pv := pr[c]
	nz := t.nz[:0]
	for j, v := range pr[:rhs] {
		if v != 0 {
			pr[j] = v / pv
			nz = append(nz, j)
		}
	}
	pr[rhs] /= pv
	nz = append(nz, rhs)
	t.nz = nz

	d := t.row(t.m)
	fd := d[c]
	for _, i := range t.col {
		if int(i) == r {
			continue
		}
		ri := t.row(int(i))
		f := ri[c]
		if math.Abs(f) < eps {
			if b := t.basis[i]; b < len(t.obj) {
				fd += t.obj[b] * f
			}
			continue
		}
		for _, j := range nz {
			ri[j] -= f * pr[j]
		}
	}
	for _, j := range nz {
		d[j] -= fd * pr[j]
	}
	t.basis[r] = c
}

// price loads the reduced-cost row for objective obj (zero past its end):
// obj minus, for every basic column that has a cost, that cost times its row.
// A phase prices once; after that pivot keeps the row current.
func (t *tableau) price(obj []float64) {
	t.obj = obj
	d := t.row(t.m)
	clear(d)
	copy(d, obj)
	for i, b := range t.basis {
		if b < len(obj) && obj[b] != 0 {
			cb := obj[b]
			for j, v := range t.row(i)[:t.w-1] {
				d[j] -= cb * v
			}
		}
	}
}

// simplex minimizes obj over the current tableau. allowed bounds the columns
// eligible to enter. Bland's rule on both the entering column (smallest
// index with negative reduced cost) and the leaving row (smallest basis
// index among exact min-ratio rows) prevents cycling. The entering column is
// gathered once per iteration; both ratio passes and pivot walk that list.
func (t *tableau) simplex(obj []float64, allowed int) error {
	t.price(obj)
	d, rhs := t.row(t.m), t.w-1
	for iter := 0; iter < 200000; iter++ {
		entering := -1
		for j, z := range d[:allowed] {
			if z < -enterEps {
				entering = j // Bland: first eligible column
				break
			}
		}
		if entering == -1 {
			return nil
		}
		// Exact minimum ratio first, then Bland tie-break.
		t.gather(entering)
		minRatio := math.Inf(1)
		for _, i := range t.col {
			if ri := t.row(int(i)); ri[entering] > eps {
				if r := ri[rhs] / ri[entering]; r < minRatio {
					minRatio = r
				}
			}
		}
		if math.IsInf(minRatio, 1) {
			return ErrUnbounded
		}
		leaving := -1
		for _, i := range t.col {
			if ri := t.row(int(i)); ri[entering] > eps {
				r := ri[rhs] / ri[entering]
				if r <= minRatio+eps && (leaving == -1 || t.basis[i] < t.basis[leaving]) {
					leaving = int(i)
				}
			}
		}
		t.pivot(leaving, entering)
	}
	return ErrIterationLimit
}

func (p *Problem) solve(perturb float64, onPivot func(row, col int)) (*Result, error) {
	n, m := len(p.objective), len(p.rows)

	// Rows become equalities with slack/surplus and a right-hand side ≥ 0
	// (flipping the row when it is not); rows left without an obvious basic
	// variable get an artificial. normal is row i after that flip.
	normal := func(i int) (rhs float64, op Op, sign float64) {
		r := &p.rows[i]
		rhs = r.rhs + perturb*(1.0+math.Abs(r.rhs))*float64(i+1)/float64(m+1)
		op, sign = r.op, 1
		if rhs < 0 {
			rhs, sign = -rhs, -1
			switch op {
			case LE:
				op = GE
			case GE:
				op = LE
			}
		}
		return rhs, op, sign
	}
	numSlacks, numArts := 0, 0
	for i := range p.rows {
		_, op, _ := normal(i)
		if op != EQ {
			numSlacks++
		}
		if op != LE {
			numArts++
		}
	}

	// Column layout: [x (n)] [slacks] [artificials] | rhs.
	structural := n + numSlacks
	w := structural + numArts + 1
	// The slab goes back to spare once X has been copied out of it.
	slab := takeSlab((m + 1) * w)
	defer keepSlab(slab)
	t := &tableau{a: slab, m: m, w: w, basis: make([]int, m), nz: make([]int, 0, w), col: make([]int32, 0, m), onPivot: onPivot}
	slackCol, artCol := n, structural
	for i := range p.rows {
		rhs, op, sign := normal(i)
		ri := t.row(i)
		for _, tm := range p.terms[p.rows[i].start:p.rows[i].end] {
			ri[tm.Var] += sign * tm.Coef
		}
		ri[w-1] = rhs
		if op == LE {
			ri[slackCol] = 1
			t.basis[i] = slackCol
			slackCol++
			continue
		}
		if op == GE {
			ri[slackCol] = -1
			slackCol++
		}
		ri[artCol] = 1
		t.basis[i] = artCol
		artCol++
	}

	// Phase 1: minimize the sum of artificials.
	if numArts > 0 {
		phase1 := make([]float64, w-1)
		for j := structural; j < w-1; j++ {
			phase1[j] = 1
		}
		if err := t.simplex(phase1, w-1); err != nil {
			return nil, err
		}
		infeas := 0.0
		for i, b := range t.basis {
			if b >= structural {
				infeas += t.row(i)[w-1]
			}
		}
		if infeas > 1e-6 {
			return nil, fmt.Errorf("%w (residual %g)", ErrInfeasible, infeas)
		}
		// Drive artificials out of the basis where possible.
		for i := range t.basis {
			if t.basis[i] < structural {
				continue
			}
			for j, v := range t.row(i)[:structural] {
				if math.Abs(v) > eps {
					t.gather(j)
					t.pivot(i, j)
					break
				}
			}
		}
	}

	// Phase 2: minimize the real objective over structural+slack columns.
	if err := t.simplex(p.objective, structural); err != nil {
		return nil, err
	}

	x := make([]float64, n)
	for i, b := range t.basis {
		if b < n {
			x[b] = t.row(i)[w-1]
		}
	}
	objective := 0.0
	for j := 0; j < n; j++ {
		objective += p.objective[j] * x[j]
	}
	return &Result{X: x, Objective: objective}, nil
}
