// The context-aware planning API: a reusable Planner bound to a cluster,
// configured with functional options, driving the hapopt loop under a
// context.Context. This is the one way in.
//
//	p := hap.NewPlanner(c, hap.WithSegments(4), hap.WithTimeBudget(time.Minute))
//	plan, err := p.Plan(ctx, g)
//	plans, err := p.PlanBatch(ctx, g, c2, c3)   // theory built once
//
// Cancelling ctx aborts an in-flight synthesis within one candidate batch;
// WithTimeBudget is sugar for context.WithTimeout around every Plan call,
// with the hapopt loop's graceful degradation (an expired budget returns the
// best plan found so far) preserved.
package hap

import (
	"context"
	"fmt"
	"time"

	"hap/internal/cluster"
	"hap/internal/hapopt"
	"hap/internal/obs"
	"hap/internal/segment"
	"hap/internal/synth"
	"hap/internal/theory"
)

// Option configures a Planner (functional options over the Options struct,
// which remains the underlying representation).
type Option func(*Options)

// WithSegments requests per-segment sharding ratios (Sec. 5.2).
func WithSegments(n int) Option { return func(o *Options) { o.Segments = n } }

// WithMaxIterations bounds the Q↔B alternation (default 4).
func WithMaxIterations(n int) Option { return func(o *Options) { o.MaxIterations = n } }

// WithExactSearch forces exact A* instead of the automatic exact/beam choice.
func WithExactSearch() Option { return func(o *Options) { o.ExactSearch = true } }

// WithoutPasses skips the post-synthesis optimization pipeline.
func WithoutPasses() Option { return func(o *Options) { o.DisablePasses = true } }

// WithTimeBudget bounds each Plan/PlanBatch call's wall-clock time: the call
// runs under context.WithTimeout(ctx, d), and an expired budget returns the
// best plan the loop found so far (or an error when none completed).
func WithTimeBudget(d time.Duration) Option { return func(o *Options) { o.TimeBudget = d } }

// WithWorkers bounds the beam synthesizer's parallelism (0 = GOMAXPROCS).
// Plans are byte-identical for every worker count.
func WithWorkers(n int) Option { return func(o *Options) { o.Workers = n } }

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
func (p *Planner) hapoptOptions(th *theory.Theory, workers int) hapopt.Options {
	o := hapopt.Options{
		MaxIterations: p.opt.MaxIterations,
		Segments:      p.opt.Segments,
		Synth:         synth.Auto(),
		DisablePasses: p.opt.DisablePasses,
		Theory:        th,
	}
	if p.opt.ExactSearch {
		o.Synth = synth.Options{}
	}
	o.Synth.Workers = workers
	if p.opt.SeedPlan != nil && p.opt.SeedGraph != nil {
		o.SeedGraph = p.opt.SeedGraph
		o.SeedProgram = p.opt.SeedPlan.Program
	}
	return o
}

func (p *Planner) plan(ctx context.Context, g *Graph, c *cluster.Cluster, th *theory.Theory, workers int) (*Plan, error) {
	res, err := hapopt.Optimize(ctx, g, c, p.hapoptOptions(th, workers))
	if err != nil {
		return nil, err
	}
	// The serving path's "verify" phase: the structural validator gating
	// every plan handed out. (Numeric verification — hap.Verify — runs in
	// the background replanner, which records its own verify span.)
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
		Passes:        res.Passes,
		Seeded:        res.Seeded,
		SeedDistance:  res.SeedDistance,
	}, nil
}

// Plan synthesizes a distributed plan for g on the planner's cluster.
// Cancelling ctx aborts an in-flight search within one candidate batch.
func (p *Planner) Plan(ctx context.Context, g *Graph) (*Plan, error) {
	ctx, cancel := p.searchCtx(ctx)
	defer cancel()
	return p.plan(ctx, g, p.c, nil, p.opt.Workers)
}

// PlanBatch synthesizes one plan per cluster for the same graph — the
// paper's heterogeneity scenario: which of my clusters runs this model best?
// The graph's background theory is constructed once and shared by every
// cluster's search (it depends only on the graph), the searches run
// concurrently with the worker budget split across them, and each returned
// plan is byte-identical to what Plan would emit for that cluster alone.
// When no clusters are given, the planner's own cluster is planned.
//
// On failure the error names the first failing cluster, and the returned
// slice still carries every plan that did complete (nil for the failed
// clusters) — one starved cluster under a shared time budget must not throw
// away its siblings' finished work.
func (p *Planner) PlanBatch(ctx context.Context, g *Graph, clusters ...*Cluster) ([]*Plan, error) {
	if len(clusters) == 0 {
		clusters = []*Cluster{p.c}
	}
	ctx, cancel := p.searchCtx(ctx)
	defer cancel()

	// Prepare the graph once — segment assignment mutates g, so it must not
	// race across the concurrent per-cluster runs — then share the theory.
	ts := obs.SpanFromContext(ctx).Child("theory")
	if p.opt.Segments > 1 {
		segment.Assign(g, p.opt.Segments)
	} else {
		g.SegmentOf = nil
	}
	th := theory.New(g)
	ts.SetAttrInt("nodes", int64(g.NumNodes()))
	ts.End()
	per := hapopt.SplitWorkers(p.opt.Workers, len(clusters))

	plans := make([]*Plan, len(clusters))
	errs := make([]error, len(clusters))
	done := make(chan int, len(clusters))
	for i, c := range clusters {
		go func(i int, c *cluster.Cluster) {
			plans[i], errs[i] = p.plan(ctx, g, c, th, per)
			done <- i
		}(i, c)
	}
	for range clusters {
		<-done
	}
	for i, err := range errs {
		if err != nil {
			return plans, fmt.Errorf("hap: batch cluster %d/%d: %w", i+1, len(clusters), err)
		}
	}
	return plans, nil
}
