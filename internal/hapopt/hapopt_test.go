package hapopt

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"slices"
	"strconv"
	"testing"
	"time"

	"hap/internal/autodiff"
	"hap/internal/balance"
	"hap/internal/cluster"
	"hap/internal/collective"
	"hap/internal/cost"
	"hap/internal/dist"
	"hap/internal/graph"
	"hap/internal/lp"
	"hap/internal/models"
	"hap/internal/obs"
	"hap/internal/runtime"
	"hap/internal/segment"
	"hap/internal/synth"
	"hap/internal/theory"
)

func hetero2() *cluster.Cluster {
	return cluster.FromGPUs(cluster.DefaultNetwork(),
		cluster.MachineSpec{Type: cluster.V100, GPUs: 2},
		cluster.MachineSpec{Type: cluster.P100, GPUs: 2})
}

func TestOptimizeMLP(t *testing.T) {
	g := models.Training(models.MLP(256, 64, 128, 64, 10))
	c := hetero2()
	res, err := Optimize(context.Background(), g, c, Options{})
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	if res.Cost <= 0 {
		t.Errorf("cost = %v", res.Cost)
	}
	if res.Program == nil || len(res.Program.Instrs) == 0 {
		t.Fatal("no program")
	}
	if got := cost.Evaluate(c, res.Program, res.Ratios); got != res.Cost {
		t.Errorf("reported cost %v != evaluated %v", res.Cost, got)
	}
}

// TestOptimizeRefusesRankAboveMax: a rank-129 graph is an error from
// Optimize, where theory.New once panicked on it with an index out of
// range; rank 128 still plans.
func TestOptimizeRefusesRankAboveMax(t *testing.T) {
	for _, rank := range []int{graph.MaxRank, graph.MaxRank + 1} {
		shape := make([]int, rank)
		for i := range shape {
			shape[i] = 1
		}
		shape[0] = 4
		g := graph.New()
		x := g.AddPlaceholder("x", 0, shape...)
		g.SetLoss(g.AddOp(graph.Sum, g.AddOp(graph.Mul, x, g.AddParameter("w", shape...))))
		_, err := Optimize(context.Background(), models.Training(g), cluster.PaperHeterogeneous(1), Options{})
		if rank == graph.MaxRank && err != nil {
			t.Errorf("rank %d: %v", rank, err)
		}
		if want := "hapopt: graph: node 0 (placeholder) has rank 129, above 128"; rank > graph.MaxRank && (err == nil || err.Error() != want) {
			t.Errorf("rank %d: error %v, want %q", rank, err, want)
		}
	}
}

func TestIterativeNoWorseThanSinglePass(t *testing.T) {
	g := models.Training(models.MLP(256, 64, 128, 64, 10))
	c := hetero2()
	single, err := Optimize(context.Background(), g, c, Options{iterations: 1})
	if err != nil {
		t.Fatalf("single: %v", err)
	}
	iterated, err := Optimize(context.Background(), g, c, Options{})
	if err != nil {
		t.Fatalf("iterated: %v", err)
	}
	if iterated.Cost > single.Cost+1e-12 {
		t.Errorf("iterated cost %v worse than single-pass %v", iterated.Cost, single.Cost)
	}
}

func TestSkipBalanceAblation(t *testing.T) {
	g := models.Training(models.MLP(256, 64, 128, 64, 10))
	c := hetero2()
	full, err := Optimize(context.Background(), g, c, Options{})
	if err != nil {
		t.Fatalf("full: %v", err)
	}
	noB, err := Optimize(context.Background(), g, c, Options{SkipBalance: true})
	if err != nil {
		t.Fatalf("noB: %v", err)
	}
	if full.Cost > noB.Cost+1e-12 {
		t.Errorf("full HAP (%v) worse than Q-only ablation (%v)", full.Cost, noB.Cost)
	}
	// Without balancing the ratios must remain B⁽⁰⁾ (proportional).
	cp := c.ProportionalRatios()
	for j, v := range noB.Ratios[0] {
		if diff := v - cp[j]; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("SkipBalance changed ratios: %v vs %v", noB.Ratios[0], cp)
			break
		}
	}
}

func TestSegmentedOptimization(t *testing.T) {
	g := models.Training(models.MLP(256, 64, 128, 128, 64, 10))
	c := hetero2()
	res, err := Optimize(context.Background(), g, c, Options{Segments: 3})
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	if n := res.Program.Graph.NumSegments(); len(res.Ratios) != n || n < 2 {
		t.Errorf("ratio rows %d, the plan's graph has %d segments", len(res.Ratios), n)
	}
	if g.SegmentOf != nil {
		t.Errorf("Optimize wrote the caller's graph: SegmentOf = %v", g.SegmentOf)
	}
}

func TestSegmentAssignInvariants(t *testing.T) {
	g := models.Training(models.MLP(64, 32, 32, 32, 32, 10))
	segment.Assign(g, 3)
	if len(g.SegmentOf) != g.NumNodes() {
		t.Fatalf("SegmentOf length %d != %d nodes", len(g.SegmentOf), g.NumNodes())
	}
	// Parameters and their gradients share a segment.
	for p, gr := range g.Grads {
		// A parameter's segment is its first consumer's; the invariant we
		// need is grad-side: backward nodes inherit the primal's segment.
		if g.Segment(gr) >= g.NumSegments() {
			t.Errorf("grad %d has out-of-range segment", gr)
		}
		_ = p
	}
	// Forward segments are monotone non-decreasing.
	prev := 0
	for i := 0; i < g.ForwardCount; i++ {
		s := g.SegmentOf[i]
		if s < prev {
			t.Errorf("forward segments not contiguous at node %d", i)
		}
		if s > prev {
			prev = s
		}
	}
}

// End-to-end semantic check through the full pipeline: the optimized plan
// (including LP-chosen, possibly very uneven ratios and per-segment rows)
// must still compute exactly what the single-device program computes.
func TestOptimizedPlanNumericallyEquivalent(t *testing.T) {
	for _, segments := range []int{1, 2} {
		g := models.Training(models.MLP(24, 8, 12, 6))
		c := hetero2()
		res, err := Optimize(context.Background(), g, c, Options{Segments: segments})
		if err != nil {
			t.Fatalf("segments=%d: Optimize: %v", segments, err)
		}
		if err := runtime.VerifyEquivalence(res.Program, c.M(), res.Ratios, 17); err != nil {
			t.Errorf("segments=%d: %v\n%s", segments, err, res.Program)
		}
	}
}

// TestDeadCodePrunedBeforeCostModeling checks the liveness walk's wiring in
// Optimize: a program carrying dead instructions — a displaced leaf loader,
// the debris the fused-leaf optimization can leave behind, and a collective
// whose layout nothing reads — is cleaned before cost extraction, so the
// dead work never inflates t(Q,B) or skews the balancer. (A computation of
// a node no output needs is no such debris: the theory has no triple for
// it, so the checker refuses the program.)
func TestDeadCodePrunedBeforeCostModeling(t *testing.T) {
	g := models.Training(models.MLP(24, 8, 12, 6))
	// A dead branch in the graph: an input nothing consumes, plus a
	// computation on it. Neither reaches the loss or any gradient.
	d := g.AddPlaceholder("unused", 0, 24, 8)
	r := g.AddOp(graph.ReLU, d)
	c := hetero2()

	res, err := Optimize(context.Background(), g, c, Options{})
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	// Today's synthesizer emits dead-code-free programs for this graph; the
	// wiring must be a no-op on them.
	if res.Pruned != 0 {
		t.Errorf("Optimize pruned %d instructions from a dead-free synthesis", res.Pruned)
	}
	for _, in := range res.Program.Instrs {
		if in.Ref == d || in.Ref == r {
			t.Fatalf("synthesizer placed dead node e%d; test premise broken:\n%s", in.Ref, res.Program)
		}
	}

	// Inject the dead instructions and re-run the walk-then-extract sequence
	// Optimize uses. The dirty program passes the checker; only liveness
	// finds the dead instructions: the loader places a leaf nothing reads,
	// and the collective moves the loss's layout to a form it does not need.
	th := theory.New(g)
	reading := make([]*theory.Triple, g.NumNodes())
	if _, err := theory.Check(th, res.Program, reading); err != nil {
		t.Fatal(err)
	}
	var moved dist.Instruction
	switch out := reading[g.Loss].Out; out.Kind {
	case theory.Reduce:
		moved = dist.Comm(g.Loss, collective.AllReduce, 0, 0)
	case theory.Gather:
		moved = dist.Comm(g.Loss, collective.PaddedAllGather, int(out.Dim), 0)
	default:
		t.Fatalf("the loss ends %v; test premise broken:\n%s", out, res.Program)
	}
	dirty := &dist.Program{Graph: g, Instrs: append(slices.Clone(res.Program.Instrs),
		dist.Instruction{Ref: d, Op: graph.Placeholder, ShardDim: 0}, moved)}
	if _, err := theory.Check(th, dirty, nil); err != nil {
		t.Fatalf("dirty program fails its check: %v\n%s", err, dirty)
	}
	b := cost.UniformRatios(g.NumSegments(), c.ProportionalRatios())
	dirtyCost := cost.Extract(c, dirty).Eval(b)

	check := theory.NewChecker(th)
	pruned, err := check.Live(dirty)
	if err != nil || pruned != 2 {
		t.Errorf("the liveness walk removed %d instructions (%v), want 2", pruned, err)
	}
	cleanCost := cost.Extract(c, dirty).Eval(b)
	if cleanCost >= dirtyCost {
		t.Errorf("dead code did not inflate the modeled cost (clean %v, dirty %v) — the walk before the model is not observable", cleanCost, dirtyCost)
	}
	// The walked program must still be what the synthesizer produced.
	if dirty.String() != res.Program.String() {
		t.Errorf("the walk changed live instructions:\n%s\nvs\n%s", dirty, res.Program)
	}
}

func TestOptimizeHeterogeneousBeatsEvenDP(t *testing.T) {
	// On a heterogeneous cluster HAP's plan should beat naive even ratios
	// applied to the same program.
	g := models.Training(models.MLP(512, 256, 256, 256, 10))
	c := hetero2()
	res, err := Optimize(context.Background(), g, c, Options{})
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	ev := cost.Evaluate(c, res.Program, cost.UniformRatios(len(res.Ratios), c.EvenRatios()))
	if res.Cost > ev+1e-12 {
		t.Errorf("HAP ratios (%v) worse than even ratios (%v) on its own program", res.Cost, ev)
	}
}

// TestTimeBudgetBoundsTheWholeLoop pins the loop-level budget semantics: an
// already-expired budget fails before any plan exists, and a generous one
// changes nothing about the result.
func TestTimeBudgetBoundsTheWholeLoop(t *testing.T) {
	g := models.Training(models.MLP(24, 8, 12, 6))
	c := hetero2()
	within := func(d time.Duration) context.Context {
		ctx, cancel := context.WithTimeout(context.Background(), d)
		t.Cleanup(cancel)
		return ctx
	}
	if _, err := Optimize(within(time.Nanosecond), g, c, Options{}); err == nil {
		t.Fatal("Optimize succeeded under a 1ns budget; want a time-budget error")
	}
	res, err := Optimize(within(time.Minute), g, c, Options{})
	if err != nil {
		t.Fatalf("Optimize under a generous budget: %v", err)
	}
	if res.Program == nil || res.Cost <= 0 {
		t.Fatalf("degenerate result under a generous budget: %+v", res)
	}
}

// A cancelled context aborts the loop with the context error — unlike an
// expired deadline, which degrades to the best plan so far.
func TestOptimizeContextSemantics(t *testing.T) {
	g := models.Training(models.MLP(24, 8, 12, 6))
	c := hetero2()
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Optimize(cancelled, g, c, Options{}); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled ctx: err = %v, want context.Canceled", err)
	}
	expired, cancel2 := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel2()
	if _, err := Optimize(expired, g, c, Options{}); err == nil || errors.Is(err, context.Canceled) {
		t.Errorf("expired ctx deadline: err = %v, want a budget-style failure", err)
	}
}

// perGPU is a four-machine heterogeneous cluster with one virtual device per
// GPU — the shape on which the balancer's B really moves between iterations.
func perGPU(v100, a100, v100b, p100 int) *cluster.Cluster {
	return cluster.FromGPUs(cluster.DefaultNetwork(),
		cluster.MachineSpec{Type: cluster.V100, GPUs: v100}, cluster.MachineSpec{Type: cluster.A100, GPUs: a100},
		cluster.MachineSpec{Type: cluster.V100, GPUs: v100b}, cluster.MachineSpec{Type: cluster.P100, GPUs: p100})
}

func bertGraph(cfg models.TransformerConfig, batch int) *graph.Graph {
	return models.Training(models.BERT(cfg, batch*cfg.SeqLen))
}

// oscillating is a small Transformer on per-GPU devices whose balancer
// alternates between even ratios and B⁽⁰⁾: B moves every iteration, and
// the second iteration, priced at B⁽⁰⁾, does not beat the first, so the loop
// stops there (no_improvement) before a third search would bring Q⁽¹⁾ back.
// The alternation is
// injected, so the witness does not depend on which optimal vertex the ratio
// LP returns (the real LP converges on this input in two iterations).
func oscillating() (*graph.Graph, *cluster.Cluster, Options) {
	cfg := models.TransformerConfig{Layers: 2, Hidden: 512, FFN: 2048, SeqLen: 16, Vocab: 128}
	c := perGPU(3, 2, 2, 3)
	g := bertGraph(cfg, 50)
	opt := Options{Segments: 3, Synth: synth.Auto()}
	calls := 0
	opt.balance = func(*cost.Model) ([][]float64, error) {
		calls++
		if calls%2 == 1 {
			return cost.UniformRatios(3, c.EvenRatios()), nil
		}
		return cost.UniformRatios(3, c.ProportionalRatios()), nil
	}
	return g, c, opt
}

// optimizeTraced runs Optimize under a traced context and returns the number
// of "search" spans it recorded beside the optimize span's attributes.
func optimizeTraced(g *graph.Graph, c *cluster.Cluster, opt Options) (*Result, int, map[string]string, error) {
	return optimizeTracedUnder(context.Background(), g, c, opt)
}

// optimizeTracedUnder is optimizeTraced under a caller's context — the way a
// test states a time budget.
func optimizeTracedUnder(ctx context.Context, g *graph.Graph, c *cluster.Cluster, opt Options) (res *Result, searches int, attrs map[string]string, err error) {
	tr := obs.New("test", "test")
	root := tr.Root("test", 0)
	res, err = Optimize(obs.ContextWithSpan(ctx, root), g, c, opt)
	root.End()
	for _, sp := range tr.Finish().Spans {
		switch sp.Name {
		case "search":
			searches++
		case "optimize":
			attrs = sp.Attrs
		}
	}
	return res, searches, attrs, err
}

// TestLoopSearchCount pins how many searches one Optimize pays for. A search
// is a pure function of B, so when the balancer returns the B the search just
// ran under, the loop stops instead of running the search that would confirm
// it: one search where B cannot move, one per portfolio arm where it moves
// only by LP round-off.
func TestLoopSearchCount(t *testing.T) {
	moe := models.BERTMoE(8)
	moe.Layers, moe.Vocab = 4, 8192
	het8 := cluster.PaperHeterogeneous(1)
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		c    *cluster.Cluster
		opt  Options
		want int
	}{
		{"homogeneous", models.Training(models.MLP(256, 64, 128, 64, 10)), cluster.PaperHomogeneous(2), Options{Synth: synth.Auto()}, 1},
		{"skip_balance", models.Training(models.MLP(256, 64, 128, 64, 10)), hetero2(), Options{SkipBalance: true}, 1},
		{"moe_portfolio", bertGraph(moe, models.PerDeviceBatch(models.ModelBERTMoE)*het8.TotalGPUs()), het8, Options{Synth: synth.Auto()}, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, searches, attrs, err := optimizeTraced(tc.g, tc.c, tc.opt)
			if err != nil {
				t.Fatalf("Optimize: %v", err)
			}
			if searches != tc.want || attrs["iterations"] != "1" || attrs["stop"] != "ratios_converged" {
				t.Errorf("ran %d searches, optimize span %v; want %d searches in 1 iteration, stop ratios_converged", searches, attrs, tc.want)
			}
		})
	}
}

// Where B really moves — BERT (4 layers) on 16 per-GPU devices at 4 segments —
// the loop keeps iterating, and what it returns is no worse than one pass.
func TestLoopIteratesWhileRatiosMove(t *testing.T) {
	cfg := models.BERTBase()
	cfg.Layers = 4
	c := perGPU(4, 4, 4, 4)
	opt := Options{Segments: 4, Synth: synth.Auto()}
	iterated, searches, attrs, err := optimizeTraced(bertGraph(cfg, 64*c.TotalGPUs()), c, opt)
	if err != nil {
		t.Fatalf("iterated: %v", err)
	}
	if searches < 2 {
		t.Errorf("ran %d searches (optimize span %v), want at least 2", searches, attrs)
	}
	opt.iterations = 1
	single, err := Optimize(context.Background(), bertGraph(cfg, 64*c.TotalGPUs()), c, opt)
	if err != nil {
		t.Fatalf("single: %v", err)
	}
	if iterated.Cost > single.Cost+1e-12 {
		t.Errorf("iterated cost %v worse than single-pass %v", iterated.Cost, single.Cost)
	}
}

// TestLoopStopReasons reaches each value of the optimize span's "stop"
// attribute — the answer to "why did the loop end, was it cut short".
// oscillating's balancer alternates two B's, so its second iteration does
// not beat the first; a cycle of Q's ends the same way (the repeated Q
// brings back its B and its t). max_iterations needs a cost that keeps
// improving: B⁽¹⁾ is even ratios, which the second search and the real LP
// after it beat.
func TestLoopStopReasons(t *testing.T) {
	run := func(ctx context.Context, mod func(*Options, *cluster.Cluster)) (map[string]string, error) {
		g, c, opt := oscillating()
		mod(&opt, c)
		_, _, attrs, err := optimizeTracedUnder(ctx, g, c, opt)
		return attrs, err
	}
	for _, tc := range []struct {
		name        string
		mod         func(*Options, *cluster.Cluster)
		stop, iters string
	}{
		{"ratios_converged", func(o *Options, _ *cluster.Cluster) { o.SkipBalance = true }, "ratios_converged", "1"},
		{"no_improvement", func(*Options, *cluster.Cluster) {}, "no_improvement", "2"},
		{"max_iterations", func(o *Options, c *cluster.Cluster) {
			o.iterations = 2
			calls := 0
			o.balance = func(m *cost.Model) ([][]float64, error) {
				if calls++; calls == 1 {
					return cost.UniformRatios(3, c.EvenRatios()), nil
				}
				return balance.RatiosFromModel(m)
			}
		}, "max_iterations", "2"},
	} {
		attrs, err := run(context.Background(), tc.mod)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if attrs["stop"] != tc.stop || attrs["iterations"] != tc.iters {
			t.Errorf("%s: optimize span %v, want stop %s after %s iterations", tc.name, attrs, tc.stop, tc.iters)
		}
	}
	// budget: the deadline must fall after the first of the two iterations
	// and before the last ends. The window is wide, but the machine's speed
	// is not ours, so walk the budget into it instead of guessing once.
	g, c, opt := oscillating()
	full, err := Optimize(context.Background(), g, c, opt)
	if err != nil {
		t.Fatal(err)
	}
	budget := full.Elapsed / 2
	for attempt := 0; attempt < 12; attempt++ {
		ctx, cancel := context.WithTimeout(context.Background(), budget)
		attrs, err := run(ctx, func(*Options, *cluster.Cluster) {})
		cancel()
		switch {
		case err != nil: // expired before the first plan completed
			budget = budget * 3 / 2
		case attrs["stop"] == "budget":
			return
		default: // ran to the end inside the budget
			budget /= 2
		}
	}
	t.Error("no time budget between the first and the last iteration made the loop stop with stop=budget")
}

// "Same B" is a distance, not a rounded key: on the paper's heterogeneous
// cluster a P100's proportional ratio is 0.10665138, 1.4e-6 from a four-digit
// rounding edge, and the LP's answer for BERT-MoE (0.10664854, round-off away)
// lands on the other side of it.
func TestSameRatiosIgnoresRoundingEdges(t *testing.T) {
	b0 := cost.UniformRatios(1, cluster.PaperHeterogeneous(1).ProportionalRatios())
	b1 := cloneRatios(b0)
	b1[0][2] = 0.10664853974976678
	if !sameRatios(b0, b1) {
		t.Errorf("ratios %v apart are not the same B", b0[0][2]-b1[0][2])
	}
	b1[0][2] += 2 * ratioGrain
	if sameRatios(b0, b1) {
		t.Errorf("ratios %v apart are the same B", b1[0][2]-b0[0][2])
	}
}

// A balancer that fails degrades the loop instead of failing the call: Q⁽¹⁾
// is kept under the B⁽⁰⁾ it was searched under, the optimize span says why
// the loop ended, and the error rides on the Result. The failure is
// injected: ViT on the paper's heterogeneous cluster, the witness before the
// ratio LP went over device classes, now solves.
func TestBalanceFailureDegrades(t *testing.T) {
	c := cluster.PaperHeterogeneous(1)
	opt := Options{Synth: synth.Auto()}
	opt.balance = func(*cost.Model) ([][]float64, error) { return nil, lp.ErrUnbounded }
	res, searches, attrs, err := optimizeTraced(models.Build(models.ModelViT, c.TotalGPUs()), c, opt)
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	if !errors.Is(res.BalanceErr, lp.ErrUnbounded) || searches != 1 || attrs["stop"] != "balance_failed" || attrs["iterations"] != "1" {
		t.Fatalf("BalanceErr %v after %d searches, optimize span %v; want the injected error, 1 search, stop balance_failed after 1 iteration", res.BalanceErr, searches, attrs)
	}
	if err := res.Program.Validate(); err != nil {
		t.Errorf("degraded plan is ill-formed: %v", err)
	}
	b0 := cost.UniformRatios(1, c.ProportionalRatios())
	if !sameRatios(res.Ratios, b0) || res.Cost != cost.Extract(c, res.Program).Eval(b0) {
		t.Errorf("degraded plan has ratios %v at cost %v, want B⁽⁰⁾ %v and the cost under it", res.Ratios, res.Cost, b0)
	}
}

// TestSynthesizerReuse holds the loop's one Synthesizer per arm to a fresh
// synth.New per B: re-priced with SetRatios and run again, it returns the
// same program bytes and the same effort counters, on bert4/pg16/seg4's four
// searches and on a seeded search.
func TestSynthesizerReuse(t *testing.T) {
	type input struct {
		name string
		g    *graph.Graph
		th   *theory.Theory
		c    *cluster.Cluster
		opt  synth.Options
		bs   [][][]float64
	}
	// loopRatios is every B the loop searches under: B⁽⁰⁾ and what the
	// balancer handed back, but the last.
	loopRatios := func(g *graph.Graph, c *cluster.Cluster, opt Options) [][][]float64 {
		bs := [][][]float64{cost.UniformRatios(max(opt.Segments, 1), c.ProportionalRatios())}
		opt.balance = func(m *cost.Model) ([][]float64, error) {
			b, err := balance.RatiosFromModel(m)
			if err == nil {
				bs = append(bs, cloneRatios(b))
			}
			return b, err
		}
		if _, err := Optimize(context.Background(), g, c, opt); err != nil {
			t.Fatal(err)
		}
		return bs[:len(bs)-1]
	}

	cfg := models.BERTBase()
	cfg.Layers = 4
	pg16 := benchPerGPU(4)
	bert := bertGraph(cfg, models.PerDeviceBatch(models.ModelBERTBase)*pg16.TotalGPUs())
	bertB := loopRatios(bert, pg16, Options{Segments: 4, Synth: synth.Auto()})
	if len(bertB) != 4 {
		t.Fatalf("bert4/pg16/seg4 searched under %d ratios, want 4", len(bertB))
	}

	het8 := cluster.PaperHeterogeneous(1)
	batch := models.PerDeviceBatch(models.ModelVGG19) * het8.TotalGPUs()
	donorG := models.Training(models.VGG19(batch, 224, 10))
	donor, err := Optimize(context.Background(), donorG, het8, Options{Synth: synth.Auto()})
	if err != nil {
		t.Fatal(err)
	}
	wide := models.Training(models.VGG19OneWider(batch, 224, 10))
	wideTh := theory.New(wide)
	seed := synth.BuildSeed(donorG, donor.Program, nil, wide, wideTh, 0)
	if seed == nil {
		t.Fatal("BuildSeed returned nil")
	}
	b0 := cost.UniformRatios(1, het8.ProportionalRatios())
	seededB := [][][]float64{b0, cost.UniformRatios(1, het8.EvenRatios()), b0}

	for _, in := range []input{
		{"bert4/pg16/seg4", bert, theory.New(bert), pg16, synth.Auto(), bertB},
		{"vgg19wider/het8/seeded", wide, wideTh, het8, synth.Options{BeamWidth: -1, Seed: seed}, seededB},
	} {
		t.Run(in.name, func(t *testing.T) {
			sy := synth.New(in.g, in.th, in.c, in.bs[0], in.opt)
			for k, b := range in.bs {
				if k > 0 {
					sy.SetRatios(b)
				}
				p, st, err := sy.Run(context.Background())
				if err != nil {
					t.Fatalf("B⁽%d⁾ reused: %v", k, err)
				}
				fp, fst, err := synth.New(in.g, in.th, in.c, b, in.opt).Run(context.Background())
				if err != nil {
					t.Fatalf("B⁽%d⁾ fresh: %v", k, err)
				}
				st.Elapsed, fst.Elapsed = 0, 0
				if st.Seeded != (in.opt.Seed != nil) {
					t.Errorf("B⁽%d⁾: Seeded %v with seed %v", k, st.Seeded, in.opt.Seed != nil)
				}
				if st != fst {
					t.Errorf("B⁽%d⁾: reused search %+v, fresh %+v", k, st, fst)
				}
				if !bytes.Equal(encodeBinary(t, p), encodeBinary(t, fp)) {
					t.Errorf("B⁽%d⁾: the reused Synthesizer's program differs from a fresh one's", k)
				}
			}
		})
	}
}

func encodeBinary(t *testing.T, p *dist.Program) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := p.EncodeBinary(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// staleReadWitness is a plan whose stale read sits on a live collective:
// the root package's fast-network differential arm's graph of seed 23 on
// two P100s, on a network 10⁴ times the paper's speed. It reads e10 at
// e12 = matmul(e10, e11) after an all-to-all replaced that layout, and a
// later computation reads the all-to-all's layout.
func staleReadWitness() (*graph.Graph, *cluster.Cluster, Options) {
	rng := rand.New(rand.NewSource(23))
	g := models.RandomTraining(rng)
	segments := 1
	if g.ForwardCount >= 6 && rng.Intn(2) == 0 {
		segments = 2
	}
	net := cluster.DefaultNetwork()
	net.InterBW *= 1e4
	net.IntraBW *= 1e4
	net.InterLatency /= 1e4
	net.IntraLatency /= 1e4
	net.KernelOverhead /= 1e4
	return g, cluster.FromGPUs(net, cluster.MachineSpec{Type: cluster.P100, GPUs: 2}), Options{Segments: segments, Synth: synth.Auto()}
}

// TestVerifyPhaseChecksThePlan: Optimize's verify span, a child of its
// optimize span, runs the program checker on the plan it returns (kind
// semantic) and reports the plan's stale reads as theory.Check counts them.
// staleReadWitness's plan has two. (The witness was VGG19 on
// PaperHomogeneous(2), with one, until the planner dropped collectives
// whose layout nothing reads.)
func TestVerifyPhaseChecksThePlan(t *testing.T) {
	g, c, opt := staleReadWitness()
	tr := obs.New("test", "test")
	root := tr.Root("test", 0)
	res, err := Optimize(obs.ContextWithSpan(context.Background(), root), g, c, opt)
	root.End()
	if err != nil {
		t.Fatal(err)
	}
	stale, err := theory.Check(theory.New(res.Program.Graph), res.Program, nil)
	if err != nil {
		t.Fatalf("the plan fails its check: %v", err)
	}
	spans := tr.Finish().Spans
	var optimize uint64
	for _, sp := range spans {
		if sp.Name == "optimize" {
			optimize = sp.ID
		}
	}
	verified := 0
	for _, sp := range spans {
		if sp.Name != "verify" {
			continue
		}
		verified++
		if sp.Parent != optimize || sp.Attrs["kind"] != "semantic" || sp.Attrs["stale_reads"] != strconv.Itoa(stale) {
			t.Errorf("verify span under %d with %v, want under optimize (%d) with kind semantic and %d stale reads", sp.Parent, sp.Attrs, optimize, stale)
		}
	}
	if verified != 1 || stale != 2 {
		t.Errorf("%d verify spans and %d stale reads, want 1 and 2", verified, stale)
	}
}

// TestOptimizeRank63 plans a graph whose input, parameter and activations
// have rank 63, one more than the donor replay's mask words held, and whose
// input is batched on its last dimension, so the plan shards dim 62. The plan
// passes the checker, and it seeds a search; BuildSeed returned nil on such
// a donor while the replay refused ranks above 62.
func TestOptimizeRank63(t *testing.T) {
	shape := make([]int, 63)
	for i := range shape {
		shape[i] = 1
	}
	shape[62] = 64
	g := graph.New()
	x := g.AddPlaceholder("x", 62, shape...) // batched on its last dim
	w := g.AddParameter("w", shape...)
	g.SetLoss(g.AddOp(graph.Sum, g.AddOp(graph.Mul, x, w)))
	if err := autodiff.Backward(g); err != nil {
		t.Fatal(err)
	}
	res, err := Optimize(context.Background(), g, hetero2(), Options{Synth: synth.Auto()})
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	th := theory.New(g)
	if _, err := theory.Check(th, res.Program, nil); err != nil {
		t.Fatalf("the plan fails its check: %v\n%s", err, res.Program)
	}
	if synth.BuildSeed(g, res.Program, th, g, th, 0) == nil {
		t.Errorf("BuildSeed returned nil for the plan's own graph:\n%s", res.Program)
	}
}
