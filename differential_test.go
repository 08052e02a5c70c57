package hap

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"testing"

	"hap/internal/cluster"
	"hap/internal/cost"
	"hap/internal/models"
	"hap/internal/obs"
	"hap/internal/passes"
	"hap/internal/theory"
)

// The randomized differential harness: generate seeded random training
// graphs, synthesize a plan for each on several cluster shapes, and check
// the plan is semantically equivalent to the single-device graph
// (hap.Verify executes both on random data). This is the pipeline-wide
// correctness test: a bug anywhere in the theory rules, the synthesizer,
// the balancer, or the data-plane collectives surfaces as a mismatch.
//
// Reproduce a failure by pinning the reported seed:
//
//	go test -run TestDifferential -fuzz-seed 12345 -fuzz-graphs 1
var (
	fuzzSeed   = flag.Int64("fuzz-seed", 1, "base seed for the differential fuzz harness")
	fuzzGraphs = flag.Int("fuzz-graphs", 50, "number of random graphs the differential harness generates")
)

// fuzzClusters are the cluster shapes every random graph is planned on:
// heterogeneous across machines, homogeneous within one machine, and a
// three-machine mix with machine-level (multi-GPU) virtual devices.
func fuzzClusters() []*Cluster {
	return []*Cluster{
		PerGPU(MachineSpec{Type: V100, GPUs: 1}, MachineSpec{Type: P100, GPUs: 1}),
		PerGPU(MachineSpec{Type: P100, GPUs: 2}),
		Heterogeneous(MachineSpec{Type: V100, GPUs: 2}, MachineSpec{Type: P100, GPUs: 2}, MachineSpec{Type: P100, GPUs: 2}),
	}
}

// fastClusters are fuzzClusters on a network 10⁴ times faster: bandwidths
// multiplied, latencies and the kernel overhead divided. At the paper's
// network the random graphs are too small for any plan to communicate; on
// these some plans do.
func fastClusters() []*Cluster {
	cs := fuzzClusters()
	for _, c := range cs {
		c.Net.InterBW *= 1e4
		c.Net.IntraBW *= 1e4
		c.Net.InterLatency /= 1e4
		c.Net.IntraLatency /= 1e4
		c.Net.KernelOverhead /= 1e4
	}
	return cs
}

// TestDifferentialFastNetwork is the harness's arm whose plans communicate:
// the random graphs, drawn as TestDifferentialRandomGraphs draws them,
// planned on fastClusters. Every plan passes the program checker, and a
// plan that fails Verify must be in a known defect class: it has a stale
// read (a computation reading a layout that a collective on its tensor
// already replaced, which the runtime's one buffer per tensor no longer
// holds; ROADMAP AE), or it reads a sharded tensor across a segment
// boundary with unequal ratios (crossesUnequalSegments; ROADMAP P). Verify
// returns such a failure as an error naming the instruction; a panic would
// end the test binary. The arm fails when no plan has a collective. It runs
// ten graphs, or -fuzz-graphs when the flag is given.
func TestDifferentialFastNetwork(t *testing.T) {
	graphs := 10
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "fuzz-graphs" {
			graphs = *fuzzGraphs
		}
	})
	plans, communicating, stale, boundary := 0, 0, 0, 0
	for i := 0; i < graphs; i++ {
		seed := *fuzzSeed + int64(i)
		for ci := range fastClusters() {
			plan, c, staleReads, reading := fastArmPlan(t, seed, ci)
			plans++
			if plan.Program.NumComms() > 0 {
				communicating++
			}
			if err := Verify(plan, c.M(), seed); err != nil {
				switch {
				case staleReads > 0:
					stale++
				case crossesUnequalSegments(plan, reading):
					boundary++
				default:
					t.Errorf("seed %d, cluster %d: Verify fails on a plan with no stale read and no unequal segment boundary: %v\n%s", seed, ci, err, plan.Program)
				}
			}
		}
	}
	t.Logf("%d plans, %d with a collective; failing Verify: %d with a stale read, %d across an unequal segment boundary", plans, communicating, stale, boundary)
	if communicating == 0 {
		t.Errorf("none of %d plans has a collective: the arm checks no collective", plans)
	}
}

// fastArmPlan draws the random graph of seed, as
// TestDifferentialRandomGraphs draws it, plans it on fastClusters()[ci] and
// returns the plan with its cluster, stale-read count and reading.
func fastArmPlan(t *testing.T, seed int64, ci int) (*Plan, *Cluster, int, []*theory.Triple) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := models.RandomTraining(rng)
	segments := 1
	if g.ForwardCount >= 6 && rng.Intn(2) == 0 {
		segments = 2
	}
	c := fastClusters()[ci]
	plan, err := planWith(g, c, Options{Segments: segments})
	if err != nil {
		t.Fatalf("seed %d, cluster %d: Plan: %v", seed, ci, err)
	}
	th := theory.New(plan.Program.Graph)
	reading := make([]*theory.Triple, th.Graph.NumNodes())
	stale, err := theory.Check(th, plan.Program, reading)
	if err != nil {
		t.Fatalf("seed %d, cluster %d: the plan fails its check: %v\n%s", seed, ci, err, plan.Program)
	}
	return plan, c, stale, reading
}

// TestVerifySegmentBoundaryIsAnError is the fast-network arm's witness of
// ROADMAP P's segment-boundary defect: seed 106 on fastClusters()[0] plans
// two segments with ratios [[0.691 0.309] [0.5 0.5]], and e25 = matmul(e24,
// e21) reads two operands split by different segments' ratios. The plan has
// no stale read. Verify fails with an error naming the instruction; the
// test expects that error until P gives a boundary one meaning.
func TestVerifySegmentBoundaryIsAnError(t *testing.T) {
	plan, c, stale, reading := fastArmPlan(t, 106, 0)
	if stale != 0 || !crossesUnequalSegments(plan, reading) {
		t.Fatalf("the witness has %d stale reads, crosses an unequal segment boundary: %t; want 0 and true\nratios %v\n%s",
			stale, crossesUnequalSegments(plan, reading), plan.Ratios, plan.Program)
	}
	want := "runtime: distributed execution: runtime: instruction 25 (e25 = matmul(e24, e21)): device 0: graph: matmul shape mismatch [31 44] · [32 31]"
	if err := Verify(plan, c.M(), 106); err == nil || err.Error() != want {
		t.Errorf("Verify: %v, want %q\nratios %v\n%s", err, want, plan.Ratios, plan.Program)
	}
}

// crossesUnequalSegments reports whether a computation of plan, read as
// reading (theory.Check's reading of plan.Program), reads a sharded operand
// of another segment whose ratios differ from its own segment's. The
// runtime splits each tensor by its own segment's ratios, so such an
// operand's local shape is not the one the computation's segment expects:
// ROADMAP P's segment-boundary defect, which the cost model charges as a
// transfer the program does not hold.
func crossesUnequalSegments(plan *Plan, reading []*theory.Triple) bool {
	g := plan.Program.Graph
	for _, tr := range reading {
		if tr == nil {
			continue
		}
		seg := g.Segment(tr.Node)
		for _, pre := range [2][]theory.Property{tr.Pre(), tr.LeafPre()} {
			for _, p := range pre {
				if from := g.Segment(p.Ref); p.Kind == theory.Gather && from != seg && !slices.Equal(plan.Ratios[from], plan.Ratios[seg]) {
					return true
				}
			}
		}
	}
	return false
}

// passesArm is the pass-pipeline-enabled arm of the differential harness:
// lower every all-reduce in the plan into its reduce-scatter + all-gather
// ring phases (modeling a backend that emits collectives per edge), check
// the lowered program still computes the graph, run the default pipeline,
// and check semantic equivalence is preserved and the modeled cost never
// increased — on every graph × cluster pair the harness generates.
func passesArm(t *testing.T, plan *Plan, c *cluster.Cluster, seed int64) {
	t.Helper()
	lowered := plan.Program.Clone()
	n, err := (passes.ExpandAllReduce{}).Run(lowered, c)
	if err != nil {
		t.Fatalf("ExpandAllReduce: %v", err)
	}
	loweredPlan := &Plan{Program: lowered, Ratios: plan.Ratios}
	if n > 0 {
		if err := Verify(loweredPlan, c.M(), seed); err != nil {
			t.Fatalf("lowered program is not equivalent to the graph: %v\n%s", err, lowered)
		}
	}
	loweredCost := cost.Evaluate(c, lowered, plan.Ratios)
	loweredComms := lowered.NumComms()

	st, err := passes.Default().Run(lowered, c)
	if err != nil {
		t.Fatalf("pass pipeline: %v\n%s", err, lowered)
	}
	if err := lowered.Validate(); err != nil {
		t.Fatalf("pipeline produced an ill-formed program: %v\n%s", err, lowered)
	}
	if err := Verify(loweredPlan, c.M(), seed); err != nil {
		t.Errorf("pipeline broke semantic equivalence (%d rewrites): %v\n%s", st.Changed, err, lowered)
	}
	optimizedCost := cost.Evaluate(c, lowered, plan.Ratios)
	if optimizedCost > loweredCost*(1+1e-9) {
		t.Errorf("pipeline increased modeled cost: %.9f → %.9f s\n%s", loweredCost, optimizedCost, lowered)
	}
	if lowered.NumComms() > loweredComms {
		t.Errorf("pipeline increased collective count: %d → %d", loweredComms, lowered.NumComms())
	}
}

// wantEachTensorCommunicatedOnce asserts the synthesizer's opt 2: no tensor
// is the operand of two collectives. The planner's only cleanup is a prune
// because of it — a program that communicates each tensor once leaves the
// pass pipeline's collective fusion and CSE nothing to rewrite.
func wantEachTensorCommunicatedOnce(t *testing.T, arm string, p *Program) {
	t.Helper()
	seen := map[NodeID]bool{}
	for _, in := range p.Instrs {
		if !in.IsComm {
			continue
		}
		if seen[in.Ref] {
			t.Errorf("%s plan communicates e%d twice (opt 2 violated):\n%s", arm, in.Ref, p)
			return
		}
		seen[in.Ref] = true
	}
}

func TestDifferentialRandomGraphs(t *testing.T) {
	graphs := *fuzzGraphs
	if testing.Short() {
		graphs = 10
	}
	clusters := fuzzClusters()
	for i := 0; i < graphs; i++ {
		seed := *fuzzSeed + int64(i)
		rng := rand.New(rand.NewSource(seed))
		g := models.RandomTraining(rng)
		// Per-segment sharding ratios for some multi-layer graphs.
		segments := 1
		if g.ForwardCount >= 6 && rng.Intn(2) == 0 {
			segments = 2
		}
		for ci, c := range clusters {
			c := c
			t.Run(fmt.Sprintf("seed=%d/cluster=%d/segments=%d", seed, ci, segments), func(t *testing.T) {
				plan, err := planWith(g, c, Options{Segments: segments})
				if err != nil {
					t.Fatalf("Plan on\n%s: %v", g, err)
				}
				if plan.Cost <= 0 || len(plan.Program.Instrs) == 0 {
					t.Fatalf("degenerate plan (cost %v, %d instrs)", plan.Cost, len(plan.Program.Instrs))
				}
				if err := plan.Program.Validate(); err != nil {
					t.Fatalf("ill-formed program: %v\n%s", err, plan.Program)
				}
				wantEachTensorCommunicatedOnce(t, "cold", plan.Program)
				if err := Verify(plan, c.M(), seed); err != nil {
					t.Errorf("synthesized program is not equivalent to the graph: %v\ngraph:\n%s\nprogram:\n%s",
						err, g, plan.Program)
				}
				passesArm(t, plan, c, seed)
				seededArm(t, g, plan, c, segments, seed)
			})
		}
	}
}

// seededArm re-plans the graph seeded from its own cold plan. A distance-0
// donor replays completely, so the seeded plan must stay verification-clean
// and cost no more than the cold one — on every graph × cluster pair the
// harness generates. Graphs small enough for exact A* exercise the
// seed-ignored path instead (the planner must not report them seeded).
func seededArm(t *testing.T, g *Graph, cold *Plan, c *cluster.Cluster, segments int, seed int64) {
	t.Helper()
	plan, err := planWith(g, c, Options{Segments: segments, SeedPlan: cold})
	if err != nil {
		t.Fatalf("seeded Plan: %v", err)
	}
	if err := plan.Program.Validate(); err != nil {
		t.Fatalf("seeded program ill-formed: %v\n%s", err, plan.Program)
	}
	wantEachTensorCommunicatedOnce(t, "seeded", plan.Program)
	if err := Verify(plan, c.M(), seed); err != nil {
		t.Errorf("seeded program is not equivalent to the graph: %v\n%s", err, plan.Program)
	}
	if plan.Cost > cold.Cost*(1+1e-9) {
		t.Errorf("seeded plan cost %v worse than cold %v", plan.Cost, cold.Cost)
	}
	if plan.Seeded {
		// A full replay re-emits the donor program; only the optimizer loop's
		// ratio rebalancing could differ, and it is deterministic too.
		if plan.Program.String() != cold.Program.String() {
			t.Errorf("self-seeded plan differs from its donor:\n%s\nvs cold:\n%s", plan.Program, cold.Program)
		}
	}
}

// TestDifferentialSeededVGG19 is the incremental-synthesis acceptance check
// at model topology scale: a one-layer-wider VGG19 planned seeded from the
// base VGG19's plan must report a real (non-zero) seed distance, stay
// well-formed, and model a cost no worse than planning the widened model
// cold. VGG19's conv ops are cost-only (no numeric kernel), so the numeric
// Verify arm for seeded plans lives in seededArm above and the serve-level
// incremental test, both on executable graphs. The image edge is scaled down
// (224 → 32) to keep the cold baseline synthesis quick; the topology — and
// hence the structural diff — is the same as the full-size model's.
func TestDifferentialSeededVGG19(t *testing.T) {
	c := PerGPU(MachineSpec{Type: V100, GPUs: 1}, MachineSpec{Type: P100, GPUs: 1})
	base := models.Training(models.VGG19(8, 32, 10))
	wide := models.Training(models.VGG19OneWider(8, 32, 10))

	cold, err := planWith(base, c, Options{})
	if err != nil {
		t.Fatalf("base VGG19: %v", err)
	}
	coldWide, err := planWith(wide, c, Options{})
	if err != nil {
		t.Fatalf("cold widened VGG19: %v", err)
	}

	tr := obs.New("", "")
	root := tr.Root("plan", 0)
	plan, err := NewPlanner(c, WithOptions(Options{SeedPlan: cold})).Plan(obs.ContextWithSpan(context.Background(), root), wide)
	root.End()
	if err != nil {
		t.Fatalf("seeded widened VGG19: %v", err)
	}
	// The random corpus is small enough to plan without any collective;
	// VGG19's gradients are where opt 2 is exercised.
	wantEachTensorCommunicatedOnce(t, "cold", cold.Program)
	wantEachTensorCommunicatedOnce(t, "cold widened", coldWide.Program)
	wantEachTensorCommunicatedOnce(t, "seeded widened", plan.Program)
	if !plan.Seeded {
		t.Fatal("one-layer-wider VGG19 did not seed from the base plan")
	}
	// The seed distance is the optimize loop's seed span's to report.
	distance := ""
	for _, sp := range tr.Export().Spans {
		if sp.Name == "seed" {
			distance = sp.Attrs["distance"]
		}
	}
	if d, err := strconv.ParseFloat(distance, 64); err != nil || d <= 0 || d > 0.25 {
		t.Errorf("seed span distance = %q, want in (0, 0.25]", distance)
	}
	if err := plan.Program.Validate(); err != nil {
		t.Fatalf("seeded program ill-formed: %v", err)
	}
	if plan.Cost > coldWide.Cost*(1+1e-9) {
		t.Errorf("seeded cost %v worse than cold %v", plan.Cost, coldWide.Cost)
	}
}
