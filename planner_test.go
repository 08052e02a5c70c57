package hap

import (
	"bytes"
	"context"
	"errors"
	"math"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"hap/internal/cluster"
	"hap/internal/dist"
	"hap/internal/graph"
	"hap/internal/hapopt"
	"hap/internal/lp"
	"hap/internal/models"
	"hap/internal/planwire"
)

// cancelGraph is a model big enough that its synthesis runs for ~0.1 s —
// room to observe a mid-search cancellation 10 ms in.
func cancelGraph(t *testing.T) *graph.Graph {
	t.Helper()
	return models.Build(models.ModelBERTBase, 2)
}

// Cancelling the context must abort an in-flight synthesis within one
// expansion — far sooner than the search would finish on its own.
func TestPlanContextCancelAbortsSearch(t *testing.T) {
	g := cancelGraph(t)
	c := testCluster()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := NewPlanner(c).Plan(ctx, g)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("cancelled Plan returned a plan, want an error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled in the chain", err)
	}
	// Generous bound: the search re-checks the cancellation latch between
	// expansions, so it must stop within ~one beam level.
	// Uncancelled, this synthesis runs ten times longer than the cancel waits.
	if elapsed > 2*time.Second {
		t.Errorf("cancelled Plan returned after %v, want prompt abort", elapsed)
	}
}

// A time budget is the context's deadline, with the loop's graceful
// degradation intact: an expired deadline with no completed plan errors (a
// budget error, not a cancellation), a generous one plans normally.
func TestPlannerTimeBudget(t *testing.T) {
	g := testGraph(t)
	c := testCluster()
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	if _, err := NewPlanner(c).Plan(ctx, g); err == nil {
		t.Error("nanosecond budget returned a plan, want an error")
	} else if errors.Is(err, context.Canceled) {
		t.Errorf("nanosecond budget reported cancellation (%v), want budget expiry", err)
	}
	ctx, cancel = context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	plan, err := NewPlanner(c).Plan(ctx, g)
	if err != nil {
		t.Fatalf("generous budget: %v", err)
	}
	if len(plan.Program.Instrs) == 0 {
		t.Fatal("generous budget produced an empty program")
	}
}

// A nil context reads as context.Background(): no deadline, no cancel.
func TestPlanNilContext(t *testing.T) {
	//lint:ignore SA1012 the nil context is what is under test
	plan, err := NewPlanner(testCluster()).Plan(nil, testGraph(t))
	if err != nil || len(plan.Program.Instrs) == 0 {
		t.Fatalf("Plan(nil, g) = %v, %v; want a plan", plan, err)
	}
}

// The functional options must lower onto the same Options struct the legacy
// API uses.
func TestFunctionalOptions(t *testing.T) {
	var got Options
	WithSegments(3)(&got)
	want := Options{Segments: 3}
	if got != want {
		t.Errorf("options = %+v, want %+v", got, want)
	}
	var bridged Options
	WithOptions(want)(&bridged)
	if bridged != want {
		t.Errorf("WithOptions = %+v, want %+v", bridged, want)
	}
}

// The binary plan payload must round-trip the full plan — program, ratios,
// segment assignment, cost, bit for bit — against a freshly rebuilt graph,
// and the re-loaded plan is a first-class plan: it verifies and simulates.
func TestBinaryPlanRoundTrip(t *testing.T) {
	g := testGraph(t)
	c := testCluster()
	plan, err := planWith(g, c, Options{Segments: 2})
	if err != nil {
		t.Fatal(err)
	}
	var bin bytes.Buffer
	if err := plan.WriteProgramBinary(&bin); err != nil {
		t.Fatalf("WriteProgramBinary: %v", err)
	}

	g2 := testGraph(t)
	back, err := ReadProgramBinary(bytes.NewReader(bin.Bytes()), g2)
	if err != nil {
		t.Fatalf("ReadProgramBinary: %v", err)
	}
	if back.Program.String() != plan.Program.String() {
		t.Error("binary round-trip changed the program")
	}
	if !slices.EqualFunc(back.Ratios, plan.Ratios, slices.Equal[[]float64]) ||
		math.Float64bits(back.Cost) != math.Float64bits(plan.Cost) {
		t.Errorf("binary round-trip changed ratios/cost: %v/%v vs %v/%v",
			back.Ratios, back.Cost, plan.Ratios, plan.Cost)
	}
	if err := Verify(back, c.M(), 21); err != nil {
		t.Errorf("Verify after binary round-trip: %v", err)
	}
	if dt, err := Simulate(back, c, 1); err != nil || dt <= 0 {
		t.Errorf("Simulate after binary round-trip = %v, %v", dt, err)
	}

	// The program section is a plain dist binary program: DecodeBinary
	// consumes it directly and ignores the trailer.
	prog, err := dist.DecodeBinary(bytes.NewReader(bin.Bytes()), back.Program.Graph)
	if err != nil {
		t.Fatalf("DecodeBinary on the raw payload: %v", err)
	}
	if prog.String() != plan.Program.String() {
		t.Error("DecodeBinary on the raw payload yielded a different program")
	}

	// Corruption in the fixed suffix must fail loudly, not misparse.
	bad := append([]byte(nil), bin.Bytes()...)
	bad[len(bad)-1] ^= 0xff
	if _, err := ReadProgramBinary(bytes.NewReader(bad), testGraph(t)); err == nil || !strings.Contains(err.Error(), "suffix") {
		t.Errorf("corrupt suffix: err = %v, want a suffix complaint", err)
	}
}

// A balancer failure costs the plan its tuned ratios, not the caller the
// plan: what comes back validates and survives the wire format. The
// failure is injected — ViT on the heterogeneous testbed, the witness before
// the ratio LP went over device classes, now solves — as the result the loop
// returns when its first LP fails: Q⁽¹⁾ under the B⁽⁰⁾ it was searched under.
func TestPlanSurvivesBalancerFailure(t *testing.T) {
	defer func(f func(context.Context, *Graph, *Cluster, hapopt.Options) (*hapopt.Result, error)) { optimize = f }(optimize)
	optimize = func(ctx context.Context, g *Graph, c *Cluster, o hapopt.Options) (*hapopt.Result, error) {
		o.FixedRatios = c.ProportionalRatios()
		res, err := hapopt.Optimize(ctx, g, c, o)
		if err == nil {
			res.BalanceErr = lp.ErrUnbounded
		}
		return res, err
	}
	c := cluster.PaperHeterogeneous(1)
	g := models.Build(models.ModelViT, c.TotalGPUs())
	plan, err := NewPlanner(c).Plan(context.Background(), g)
	if err != nil {
		t.Fatalf("Plan: %v", err)
	}
	if err := plan.Program.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
	if err := planwire.ValidateRatios(plan.Ratios, g.NumSegments()); err != nil {
		t.Errorf("ValidateRatios: %v", err)
	}
	var bin bytes.Buffer
	if err := plan.WriteProgramBinary(&bin); err != nil {
		t.Fatalf("WriteProgramBinary: %v", err)
	}
	if _, err := ReadProgramBinary(&bin, g); err != nil {
		t.Errorf("ReadProgramBinary: %v", err)
	}
}

// scratchIdleCycles is internal/synth's: that many collections with no
// search between them free the synthesizer's pooled scratches.
const scratchIdleCycles = 8

// allocsPerRun returns the fewest allocations f made in one of runs runs,
// measured with the collector paused and on one P (internal/synth's
// allocsPerRun has the reasons). A cold run first drains the synthesizer's
// scratch pool with scratchIdleCycles collections, so its search carves its
// memory as a fresh one; a warm run follows an unmeasured one, so its
// search borrows the scratch a run before returned.
func allocsPerRun(runs int, cold bool, f func()) float64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	allocs := math.Inf(1)
	var before, after runtime.MemStats
	for i := 0; i < runs; i++ {
		for j := 0; cold && j < scratchIdleCycles; j++ {
			runtime.GC()
		}
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		allocs = min(allocs, float64(after.Mallocs-before.Mallocs))
	}
	return allocs
}

// TestPlanAllocationPin holds what Plan adds around the optimization loop
// on VGG19 × het8, exactly. With the loop stood in by a stub returning a
// finished result, Plan allocates planOverAllocs (the Plan). The caller's
// context reaches the searches as it is, so with the real loop Plan
// allocates exactly hapopt.Optimize's allocations plus that pin, cold (the
// search carves its scratch) and warm (it borrows one) alike: a
// context.Background() caller pays for no cancel context, nor for the
// AfterFunc each search would register on one. (While Plan ran the
// structural Program.Validate itself, it allocated that one allocation
// more; Optimize now runs the program checker instead. With the collector
// running, a whole search's count varied by a few between runs of the same
// input, 506–511 here, so this comparison allowed 3 allocations of noise.)
func TestPlanAllocationPin(t *testing.T) {
	const planOverAllocs = 1
	in := warmInputs()[0]
	g, c := in.build(), in.c
	p := NewPlanner(c)
	ctx := context.Background()
	res, err := hapopt.Optimize(ctx, g, c, p.hapoptOptions())
	if err != nil {
		t.Fatal(err)
	}
	plan := func() {
		if _, err := p.Plan(ctx, g); err != nil {
			t.Fatal(err)
		}
	}

	defer func(f func(context.Context, *Graph, *Cluster, hapopt.Options) (*hapopt.Result, error)) { optimize = f }(optimize)
	optimize = func(context.Context, *Graph, *Cluster, hapopt.Options) (*hapopt.Result, error) { return res, nil }
	if got := allocsPerRun(3, false, plan); got != planOverAllocs {
		t.Errorf("%s: around a stubbed loop Plan allocates %.0f, pin %d", in.name, got, planOverAllocs)
	}

	optimize = hapopt.Optimize
	for _, cold := range []bool{true, false} {
		loop := allocsPerRun(3, cold, func() {
			if _, err := hapopt.Optimize(ctx, g, c, p.hapoptOptions()); err != nil {
				t.Fatal(err)
			}
		})
		whole := allocsPerRun(3, cold, plan)
		t.Logf("%s (cold %v): Plan %.0f allocations, Optimize %.0f", in.name, cold, whole, loop)
		if gap := whole - loop; gap != planOverAllocs {
			t.Errorf("%s (cold %v): Plan allocates %.0f more than Optimize, pin %d", in.name, cold, gap, planOverAllocs)
		}
	}
}

// TestConcurrentPlansSharePool plans the benchmark's plan_cold inputs
// concurrently, twice each, on one Planner per input: every search, MoE's
// two concurrent arms included, borrows its working memory from the
// synthesizer's process-wide pool while others hold theirs. Each plan's
// bytes must equal the serial plan's: a scratch shared between two
// searches, or one that carried anything of an earlier search into the
// next, would move them.
func TestConcurrentPlansSharePool(t *testing.T) {
	ins := planColdInputs()
	planners := make([]*Planner, len(ins))
	serial := make([][]byte, len(ins))
	encode := func(plan *Plan) []byte {
		var buf bytes.Buffer
		if err := plan.WriteProgramBinary(&buf); err != nil {
			t.Error(err)
		}
		return buf.Bytes()
	}
	for i, in := range ins {
		planners[i] = NewPlanner(in.c)
		plan, err := planners[i].Plan(context.Background(), in.build())
		if err != nil {
			t.Fatalf("%s: %v", in.name, err)
		}
		serial[i] = encode(plan)
	}
	var wg sync.WaitGroup
	for rep := 0; rep < 2; rep++ {
		for i, in := range ins {
			wg.Add(1)
			go func(i int, in warmInput) {
				defer wg.Done()
				plan, err := planners[i].Plan(context.Background(), in.build())
				if err != nil {
					t.Errorf("%s: %v", in.name, err)
					return
				}
				if !bytes.Equal(encode(plan), serial[i]) {
					t.Errorf("%s: a concurrent plan's bytes differ from the serial plan's", in.name)
				}
			}(i, in)
		}
	}
	wg.Wait()
}

// BenchmarkPlanWarm times the path bench/'s plan_cold workload times: one
// Planner per plan_cold input, re-planned, so every search after the first
// borrows the working memory an earlier one returned to the pool. What a
// cold plan allocates is held by the cold rows of the allocation pins.
func BenchmarkPlanWarm(b *testing.B) {
	for _, in := range planColdInputs() {
		p, g := NewPlanner(in.c), in.build()
		b.Run(in.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := p.Plan(context.Background(), g); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestPlanRefusesRankAboveMax: a graph with a rank-129 tensor is an error
// from Plan, where it once panicked theory.New with an index out of range
// (a Property names a dimension in an int8); rank 128 still plans.
func TestPlanRefusesRankAboveMax(t *testing.T) {
	for _, rank := range []int{graph.MaxRank, graph.MaxRank + 1} {
		shape := make([]int, rank)
		for i := range shape {
			shape[i] = 1
		}
		shape[0] = 4
		g := NewGraph()
		x := g.AddPlaceholder("x", 0, shape...)
		g.SetLoss(g.AddOp(graph.Sum, g.AddOp(graph.Mul, x, g.AddParameter("w", shape...))))
		if err := Backward(g); err != nil {
			t.Fatal(err)
		}
		_, err := NewPlanner(testCluster()).Plan(context.Background(), g)
		if rank == graph.MaxRank && err != nil {
			t.Errorf("rank %d: %v", rank, err)
		}
		if rank > graph.MaxRank && (err == nil || !strings.Contains(err.Error(), "has rank 129, above 128")) {
			t.Errorf("rank %d: error %v, want the rank refused", rank, err)
		}
	}
}
