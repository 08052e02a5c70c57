// The context-aware planning API: a reusable Planner bound to a cluster,
// configured with functional options, driving the hapopt loop under a
// context.Context. This is the one way in.
//
//	p := hap.NewPlanner(c, hap.WithSegments(4))
//	plan, err := p.Plan(ctx, g)
//
// The caller's context is the planner's one clock. Cancelling it aborts an
// in-flight synthesis within one expansion; its deadline is the time budget,
// and the hapopt loop degrades gracefully when it passes (the best plan
// found so far is returned, or an error when none completed).
package hap

import (
	"context"

	"hap/internal/hapopt"
	"hap/internal/synth"
)

// Option configures a Planner (functional options over the Options struct,
// which remains the underlying representation).
type Option func(*Options)

// WithSegments requests per-segment sharding ratios (Sec. 5.2).
func WithSegments(n int) Option { return func(o *Options) { o.Segments = n } }

// WithWorkers returns an Option that does nothing: every search runs on the
// goroutine that calls Plan.
//
// Deprecated: a no-op kept only because bench/ still calls it; ROADMAP O
// deletes it with bench/'s calls.
func WithWorkers(int) Option { return func(*Options) {} }

// WithOptions adopts an Options struct wholesale — for callers that build
// their options as data (hap-serve lowers wire options this way), and the
// only way to supply a seed donor (Options.SeedPlan).
func WithOptions(opt Options) Option { return func(o *Options) { *o = opt } }

// Planner plans distributed programs for one cluster. It is cheap to build,
// immutable, and safe for concurrent use; search memory is pooled
// process-wide and released by the collector.
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

// hapoptOptions lowers the planner's options for one optimization run.
func (p *Planner) hapoptOptions() hapopt.Options {
	o := hapopt.Options{Segments: p.opt.Segments, Synth: synth.Auto()}
	if p.opt.SeedPlan != nil {
		o.SeedProgram = p.opt.SeedPlan.Program
	}
	return o
}

// optimize is the loop Plan runs; tests stand in for it to inject faults.
var optimize = hapopt.Optimize

// Plan synthesizes a distributed plan for g on the planner's cluster under
// ctx, the search's one clock (nil reads as context.Background()):
// cancelling it aborts an in-flight search within one expansion, and its
// deadline is the time budget.
// g is only read, so concurrent calls may share it: the plan's
// Program.Graph is g, or a shallow copy of g carrying the plan's segment
// assignment (WithSegments) when g does not carry it already.
// Every plan returned has passed the program checker (theory.Check), which
// the optimization loop runs in its "verify" phase; a plan that fails it is
// an error. Numeric verification (Verify) executes the plan and is left to
// the caller: it has no kernel for several ops the paper's models use.
func (p *Planner) Plan(ctx context.Context, g *Graph) (*Plan, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	res, err := optimize(ctx, g, p.c, p.hapoptOptions())
	if err != nil {
		return nil, err
	}
	return &Plan{
		Program:       res.Program,
		Ratios:        res.Ratios,
		Cost:          res.Cost,
		SynthesisTime: res.Elapsed.Seconds(),
		Seeded:        res.Seeded,
	}, nil
}
