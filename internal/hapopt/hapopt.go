// Package hapopt runs HAP's alternating optimization loop (Sec. 3.1):
//
//	B⁽⁰⁾ ∝ device compute power
//	Q⁽ˢ⁾ = argmin_Q t(Q, B⁽ˢ⁻¹⁾)   (program synthesizer)
//	B⁽ˢ⁾ = argmin_B t(Q⁽ˢ⁾, B)     (load balancer LP)
//
// iterated until convergence or oscillation; the best (Q,B) pair seen is
// returned. A search is a pure function of B, so convergence is decided
// before a search, not after it: when the balancer hands back the B the last
// search ran under (see sameRatios), the loop stops without re-running it.
// Oscillation — a Q, and with it B = LP(Q), coming back after a cycle of two
// or more — is caught by remembering every Q. Each theory of the portfolio
// has one synth.Synthesizer for the whole loop, re-priced for every B. This
// package is HAP's top-level optimizer.
package hapopt

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"hap/internal/balance"
	"hap/internal/cluster"
	"hap/internal/cost"
	"hap/internal/dist"
	"hap/internal/graph"
	"hap/internal/obs"
	"hap/internal/segment"
	"hap/internal/synth"
	"hap/internal/theory"
)

// Options configures the optimization loop. A wall-clock budget is not an
// option: it is the deadline of the context Optimize runs under.
type Options struct {
	// Segments requests per-segment sharding ratios (0 = single segment).
	Segments int
	// Synth forwards synthesizer options.
	Synth synth.Options
	// SkipBalance freezes B at B⁽⁰⁾ (ablation "Q" of Sec. 7.4).
	SkipBalance bool
	// InitialRatios overrides B⁽⁰⁾ (default: proportional to device flops).
	InitialRatios []float64
	// SeedGraph and SeedProgram supply a donor plan for incremental
	// synthesis: when the donor graph is structurally close enough to g
	// (normalized diff ≤ synth.DefaultMaxSeedDistance), every iteration's
	// program search is seeded from the donor — decisions in the unchanged
	// region are pinned and the beam narrows (see synth.Options.Seed). A
	// donor too far away, or one whose program fails to replay, silently
	// degrades to cold synthesis. Portfolio arms (the expert-parallel MoE theory) always
	// search cold: the filtered theory does not contain the pinned triples.
	SeedGraph   *graph.Graph
	SeedProgram *dist.Program

	// iterations, set by tests only, stands in for maxIterations when > 0.
	iterations int
	// onRatios, set by tests only, sees every B the balancer hands back.
	onRatios func(b [][]float64)
	// balance, set by tests only, stands in for balance.RatiosFromModel.
	balance func(*cost.Model) ([][]float64, error)
}

// maxIterations bounds the alternation count, matching the paper's
// observation that the loop converges or oscillates quickly.
const maxIterations = 4

// Result is the optimized plan.
type Result struct {
	Program *dist.Program
	Ratios  [][]float64 // [segment][device]
	Cost    float64     // modeled t(Q,B), seconds per iteration
	Iters   int
	Elapsed time.Duration
	Synth   synth.Stats // stats of the final synthesis
	// Pruned is the number of dead instructions removed from Program before
	// cost modeling (the synthesizer's fused-leaf optimization can leave
	// displaced leaf loaders behind; see dist.Prune).
	Pruned int
	// Seeded reports whether the returned program came out of a seeded
	// (incremental) search rather than a cold one, and SeedDistance the
	// donor's normalized structural distance (0 for an identical graph).
	Seeded       bool
	SeedDistance float64
	// BalanceErr is the load balancer's error when its LP failed
	// (stop=balance_failed on the optimize span): the loop ended there, and
	// that iteration's program was costed under the ratios it was searched
	// under. The plan is valid either way; nothing serialises this field.
	BalanceErr error
}

// Optimize runs the full HAP pipeline on a training graph and cluster.
// ctx carries the loop's one clock. Its deadline bounds the whole loop's
// wall-clock time: every program search runs under it, and once it passes the
// loop ends with the best plan found so far (or an error when none exists
// yet). Cancelling ctx instead aborts the loop (and any in-flight search)
// promptly with the context error — nobody is waiting for a best-effort plan
// after a disconnect. g is only read: the program binds to g, or to a shallow
// copy of g when the plan's segment assignment is not the one g carries.
func Optimize(ctx context.Context, g *graph.Graph, c *cluster.Cluster, opt Options) (*Result, error) {
	start := time.Now()
	if ctx == nil {
		ctx = context.Background()
	}
	iterations := maxIterations
	if opt.iterations > 0 {
		iterations = opt.iterations
	}
	// One span lookup per Optimize call; nil (tracing off) makes every span
	// operation below a no-op.
	span := obs.SpanFromContext(ctx).Child("optimize")
	defer span.End()
	ts := span.Child("theory")
	// From here on g carries the requested segment assignment (see above).
	var segOf []int
	if opt.Segments > 1 {
		segOf = segment.Of(g, opt.Segments)
	}
	g = g.WithSegmentOf(segOf)
	th := theory.New(g)
	ts.SetAttrInt("nodes", int64(g.NumNodes()))
	ts.SetAttrInt("outputs", int64(len(th.Outputs)))
	ts.End()

	// The seed is built once — the structural diff and donor replay depend
	// only on the graphs and theories, never on the ratios the loop updates —
	// and reused by every iteration's search.
	if opt.SeedProgram != nil && opt.Synth.Seed == nil {
		ss := span.Child("seed")
		opt.Synth.Seed = synth.BuildSeed(opt.SeedGraph, opt.SeedProgram, nil, g, th, 0)
		if sd := opt.Synth.Seed; sd != nil {
			ss.SetAttrFloat("distance", sd.Distance)
			ss.SetAttrInt("steps", int64(sd.Steps()))
		}
		ss.End()
	}

	init := opt.InitialRatios
	if init == nil {
		init = c.ProportionalRatios()
	}
	b := cost.UniformRatios(g.NumSegments(), init)

	// Portfolio theories: the beam search is myopic about strategies whose
	// payoff comes much later (expert parallelism pays an All-To-All up
	// front to avoid expert-gradient synchronization entirely), so for MoE
	// graphs we additionally search a theory restricted to expert-parallel
	// rules and keep whichever plan costs less. Exact A* subsumes this; the
	// beam needs the hint (see DESIGN.md).
	portfolio := []*theory.Theory{th}
	if hasExperts(g) {
		portfolio = append(portfolio, th.Filter(func(tr *theory.Triple) bool {
			return theory.ExpertParallel(g, tr)
		}))
	}

	// One Synthesizer per portfolio theory serves every iteration: SetRatios
	// re-prices it for the new B, and each Run borrows its search memory
	// from synth's process-wide pool.
	arms := make([]*synth.Synthesizer, len(portfolio))
	for i, th := range portfolio {
		o := opt.Synth
		if i != 0 {
			// Filtered portfolio theories carry their own triple set; the
			// seed's pins reference the base theory's.
			o.Seed = nil
		}
		arms[i] = synth.New(g, th, c, b, o)
	}
	solve := opt.balance
	if solve == nil {
		solve = balance.RatiosFromModel
	}

	// Zero when ctx has no deadline; the searches read the same one.
	deadline, _ := ctx.Deadline()
	var best *Result
	var balanceErr error
	var seen []*dist.Program
	ran, stop := 0, "max_iterations"
	for iter := 1; iter <= iterations; iter++ {
		// The iteration span parents this round's searches and balance solve;
		// error exits drop it unrecorded, which is fine — the error reaches
		// the request's root span anyway.
		it := span.Child("iteration")
		it.SetAttrInt("iter", int64(iter))
		ictx := obs.ContextWithSpan(ctx, it)
		// An explicit cancellation aborts outright — unlike an expired
		// budget, nobody is waiting for a best-effort plan.
		if err := ctx.Err(); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			return nil, fmt.Errorf("hapopt: %w", err)
		}
		// The whole loop shares one wall-clock budget: an expired one ends
		// the loop with the best plan so far instead of holding the caller
		// longer.
		if !deadline.IsZero() && !time.Now().Before(deadline) {
			if best != nil {
				stop = "budget"
				break
			}
			return nil, fmt.Errorf("hapopt: time budget exhausted after %v before any plan completed", time.Since(start).Round(time.Millisecond))
		}
		if iter > 1 {
			for _, a := range arms {
				a.SetRatios(b)
			}
		}
		// The portfolio theories search concurrently under the shared
		// deadline, one goroutine each. Selection walks the results in
		// portfolio order with the same tie-breaking as a sequential loop —
		// the base theory wins cost ties — so the outcome is
		// order-deterministic.
		outs := make([]portfolioResult, len(arms))
		if len(arms) == 1 {
			outs[0].p, outs[0].stats, outs[0].err = arms[0].Run(ictx)
		} else {
			var wg sync.WaitGroup
			for i, a := range arms {
				wg.Add(1)
				go func(i int, a *synth.Synthesizer) {
					defer wg.Done()
					outs[i].p, outs[i].stats, outs[i].err = a.Run(ictx)
				}(i, a)
			}
			wg.Wait()
		}
		var p *dist.Program
		var stats synth.Stats
		win := 0
		for i := range outs {
			cp, cs, err := outs[i].p, outs[i].stats, outs[i].err
			if err != nil {
				if i == 0 {
					// A cancelled context propagates: the search was aborted
					// because nobody wants the result anymore.
					if ce := ctx.Err(); ce != nil && !errors.Is(ce, context.DeadlineExceeded) {
						return nil, fmt.Errorf("hapopt: %w", ce)
					}
					// The budget expiring mid-iteration with a plan already
					// in hand is the graceful-degradation path; any other
					// base-theory failure propagates as before.
					if best != nil && !deadline.IsZero() && time.Now().After(deadline) {
						p = nil
						break
					}
					return nil, fmt.Errorf("hapopt: iteration %d: %w", iter, err)
				}
				continue
			}
			if p == nil || cs.Cost < stats.Cost {
				p, stats, win = cp, cs, i
			}
		}
		if p == nil {
			it.End()
			stop = "budget"
			break // budget expired mid-iteration; serve what we have
		}
		// Dead instructions must never reach cost modeling or the balancer:
		// a leaf loader (or a collective on it) that the fused-leaf
		// optimization displaced would inflate t(Q,B) and skew B. Pruning is
		// the only cleanup a synthesized program needs — the synthesizer never
		// communicates a tensor twice, so there is no collective to fuse or
		// deduplicate (internal/passes canonicalizes other programs).
		pruned := p.Prune()
		model := cost.Extract(c, p)
		// Convergence: when the balancer returns the B this iteration's
		// search ran under, the next search would return this Q again.
		// A balancer that fails degrades the plan, not the call: this Q is
		// judged under the B its search ran under, and the loop ends.
		converged := opt.SkipBalance
		if !opt.SkipBalance {
			bs := it.Child("balance")
			nb, err := solve(model)
			if err != nil {
				balanceErr = fmt.Errorf("hapopt: iteration %d: %w", iter, err)
				bs.SetAttrStr("error", err.Error())
			} else {
				converged = sameRatios(nb, b)
				b = nb
				if opt.onRatios != nil {
					opt.onRatios(b)
				}
			}
			bs.End()
		}
		t := model.Eval(b)
		if best == nil || t < best.Cost {
			best = &Result{Program: p, Ratios: cloneRatios(b), Cost: t, Iters: iter, Synth: stats, Pruned: pruned}
			// stats.Seeded (not just a non-nil seed) so a small graph routed
			// to exact A* — which ignores seeds — is not reported seeded.
			if sd := opt.Synth.Seed; sd != nil && win == 0 && stats.Seeded {
				best.Seeded = true
				best.SeedDistance = sd.Distance
			}
		}
		it.SetAttrFloat("cost", t)
		it.End()
		ran = iter
		if balanceErr != nil {
			stop = "balance_failed"
			break
		}
		if converged {
			stop = "ratios_converged"
			break
		}
		// Oscillation: B is a function of Q, so a Q seen before brings its B
		// back with it — the (Q,B) pair repeats and the loop is in a cycle.
		// Programs compare on what their encoding holds.
		if slices.ContainsFunc(seen, p.EqualBinary) {
			stop = "pair_repeated"
			break
		}
		seen = append(seen, p)
	}
	span.SetAttrInt("iterations", int64(ran))
	span.SetAttrStr("stop", stop)
	best.Elapsed = time.Since(start)
	best.BalanceErr = balanceErr
	return best, nil
}

// portfolioResult is one theory's concurrent synthesis outcome.
type portfolioResult struct {
	p     *dist.Program
	stats synth.Stats
	err   error
}

func hasExperts(g *graph.Graph) bool {
	for i := range g.Nodes {
		if g.Nodes[i].Kind == graph.ExpertMM {
			return true
		}
	}
	return false
}

func cloneRatios(b [][]float64) [][]float64 {
	out := make([][]float64, len(b))
	for i := range b {
		out[i] = append([]float64(nil), b[i]...)
	}
	return out
}

// ratioGrain is the loop's resolution on B: far above the LP's round-off
// between two solves at one vertex (1e-6 and below), far below a real move of
// the optimum (1e-3 and up on every measured input).
const ratioGrain = 1e-4

// sameRatios is the one definition of "same B": no ratio differs by more
// than ratioGrain.
func sameRatios(a, b [][]float64) bool {
	for i := range a {
		for j := range a[i] {
			if math.Abs(a[i][j]-b[i][j]) > ratioGrain {
				return false
			}
		}
	}
	return true
}
