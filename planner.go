// The context-aware planning API: a reusable Planner bound to a cluster,
// configured with functional options, driving the hapopt loop under a
// context.Context. This is the one way in.
//
//	p := hap.NewPlanner(c, hap.WithSegments(4), hap.WithTimeBudget(time.Minute))
//	plan, err := p.Plan(ctx, g)
//
// Cancelling ctx aborts an in-flight synthesis within one expansion;
// WithTimeBudget is sugar for context.WithTimeout around every Plan call,
// with the hapopt loop's graceful degradation (an expired budget returns the
// best plan found so far) preserved.
package hap

import (
	"context"
	"fmt"
	"time"

	"hap/internal/hapopt"
	"hap/internal/obs"
	"hap/internal/synth"
)

// Option configures a Planner (functional options over the Options struct,
// which remains the underlying representation).
type Option func(*Options)

// WithSegments requests per-segment sharding ratios (Sec. 5.2).
func WithSegments(n int) Option { return func(o *Options) { o.Segments = n } }

// WithTimeBudget bounds each Plan call's wall-clock time: the call
// runs under context.WithTimeout(ctx, d), and an expired budget returns the
// best plan the loop found so far (or an error when none completed).
func WithTimeBudget(d time.Duration) Option { return func(o *Options) { o.TimeBudget = d } }

// WithWorkers returns an Option that does nothing: every search runs on the
// goroutine that calls Plan.
//
// Deprecated: a no-op kept only because bench/ still calls it; ROADMAP O
// deletes it with bench/'s calls.
func WithWorkers(int) Option { return func(*Options) {} }

// WithOptions adopts an Options struct wholesale — for callers that build
// their options as data (hap-serve lowers wire options this way), and the
// only way to supply a seed donor (Options.SeedGraph, Options.SeedPlan).
func WithOptions(opt Options) Option { return func(o *Options) { *o = opt } }

// Planner plans distributed programs for one cluster. It is cheap to build,
// immutable, and safe for concurrent use; synthesis state lives per call.
type Planner struct {
	c   *Cluster
	opt Options
}

// NewPlanner binds a planner to a cluster with the given options.
func NewPlanner(c *Cluster, opts ...Option) *Planner {
	p := &Planner{c: c}
	for _, o := range opts {
		o(&p.opt)
	}
	return p
}

// searchCtx applies the TimeBudget sugar: a budgeted planner runs every call
// under context.WithTimeout.
func (p *Planner) searchCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	if ctx == nil {
		ctx = context.Background()
	}
	if p.opt.TimeBudget > 0 {
		return context.WithTimeout(ctx, p.opt.TimeBudget)
	}
	return context.WithCancel(ctx)
}

// hapoptOptions lowers the planner's options for one optimization run. The
// time budget is deliberately absent: it travels on the context.
func (p *Planner) hapoptOptions() hapopt.Options {
	o := hapopt.Options{Segments: p.opt.Segments, Synth: synth.Auto()}
	if p.opt.SeedPlan != nil && p.opt.SeedGraph != nil {
		o.SeedGraph = p.opt.SeedGraph
		o.SeedProgram = p.opt.SeedPlan.Program
	}
	return o
}

// optimize is the loop Plan runs; tests stand in for it to inject faults.
var optimize = hapopt.Optimize

// Plan synthesizes a distributed plan for g on the planner's cluster.
// Cancelling ctx aborts an in-flight search within one expansion.
// g is only read, so concurrent calls may share it: the plan's
// Program.Graph is g, or a shallow copy of g carrying the plan's segment
// assignment (WithSegments) when g does not carry it already.
func (p *Planner) Plan(ctx context.Context, g *Graph) (*Plan, error) {
	ctx, cancel := p.searchCtx(ctx)
	defer cancel()
	res, err := optimize(ctx, g, p.c, p.hapoptOptions())
	if err != nil {
		return nil, err
	}
	// The serving path's "verify" phase: the structural validator gating
	// every plan handed out. Numeric verification (hap.Verify) executes the
	// plan and is left to the caller: it has no kernel for several ops the
	// paper's models use.
	vs := obs.SpanFromContext(ctx).Child("verify")
	vs.SetAttrStr("kind", "structural")
	verr := res.Program.Validate()
	vs.End()
	if verr != nil {
		return nil, fmt.Errorf("hap: synthesized program is ill-formed: %w", verr)
	}
	return &Plan{
		Program:       res.Program,
		Ratios:        res.Ratios,
		Cost:          res.Cost,
		SynthesisTime: res.Elapsed.Seconds(),
		Seeded:        res.Seeded,
		SeedDistance:  res.SeedDistance,
	}, nil
}
