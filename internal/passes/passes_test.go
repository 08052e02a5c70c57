package passes

import (
	"errors"
	"testing"

	"hap/internal/cluster"
	"hap/internal/collective"
	"hap/internal/dist"
	"hap/internal/graph"
)

// testCluster returns two single-GPU devices — the smallest cluster on which
// collectives cost anything.
func testCluster() *cluster.Cluster {
	return cluster.FromGPUs(cluster.DefaultNetwork(),
		cluster.MachineSpec{Type: cluster.V100, GPUs: 1},
		cluster.MachineSpec{Type: cluster.P100, GPUs: 1})
}

// reductionProgram builds loss = sum(x·w) computed reduction-parallel
// (x sharded on features, w on rows, the matmul producing partial sums) with
// the given collective sequence applied to the matmul's pending-reduce
// output. It is the canonical host for fusion patterns: every collective
// sequence that ends with the tensor fully reduced and replicated is
// semantically an all-reduce.
func reductionProgram(t *testing.T, comms ...dist.Instruction) *dist.Program {
	t.Helper()
	g := graph.New()
	x := g.AddPlaceholder("x", 0, 16, 8)
	w := g.AddParameter("w", 8, 4)
	y := g.AddOp(graph.MatMul, x, w)
	g.SetLoss(g.AddOp(graph.Sum, y))

	p := &dist.Program{Graph: g, Instrs: []dist.Instruction{
		{Ref: x, Op: graph.Placeholder, ShardDim: 1},
		{Ref: w, Op: graph.Parameter, ShardDim: 0},
		{Ref: y, Op: graph.MatMul, ShardDim: -1, FlopsScaled: true},
	}}
	for i := range comms {
		comms[i].Ref = y
		p.Instrs = append(p.Instrs, comms[i])
	}
	p.Instrs = append(p.Instrs, dist.Instruction{
		Ref: g.Loss, Op: graph.Sum, ShardDim: -1,
	})
	if err := p.Validate(); err != nil {
		t.Fatalf("test program ill-formed before passes: %v", err)
	}
	return p
}

func comm(k collective.Kind, d, d2 int) dist.Instruction {
	return dist.Comm(0, k, d, d2) // Ref is filled in by reductionProgram
}

func TestPipelineFusesChainToAllReduce(t *testing.T) {
	// reduce-scatter → all-to-all → all-gather collapses in two steps:
	// RS+A2A → RS(dim'), then RS+AG → all-reduce. One CommFusion sweep
	// handles the chain because rewrites re-examine their own output.
	p := reductionProgram(t,
		comm(collective.ReduceScatter, 0, 0),
		comm(collective.AllToAll, 0, 1),
		comm(collective.PaddedAllGather, 1, 0),
	)
	st, err := Default().Run(p, testCluster())
	if err != nil {
		t.Fatalf("pipeline: %v", err)
	}
	if got := st.ChangedBy("comm-fusion"); got != 2 {
		t.Errorf("comm-fusion changed %d, want 2 (chain of two rewrites)", got)
	}
	if n := p.NumComms(); n != 1 {
		t.Errorf("fused program has %d collectives, want 1:\n%s", n, p)
	}
	if cc := p.CollectiveCount(); cc[collective.AllReduce] != 1 {
		t.Errorf("collective histogram %v, want exactly one all-reduce", cc)
	}
	if st.Rounds != 2 {
		// Round 1 rewrites, round 2 confirms the fixed point.
		t.Errorf("pipeline ran %d rounds, want 2", st.Rounds)
	}
}

func TestCommFusionKeepsLoadBearingPairs(t *testing.T) {
	// A computation consuming the scattered shard between the two collectives
	// makes the pair load-bearing: fusing would change what the consumer sees.
	g := graph.New()
	x := g.AddPlaceholder("x", 0, 16, 8)
	w := g.AddParameter("w", 8, 4)
	y := g.AddOp(graph.MatMul, x, w)
	r := g.AddOp(graph.ReLU, y)
	g.SetLoss(g.AddOp(graph.Sum, r))
	p := &dist.Program{Graph: g, Instrs: []dist.Instruction{
		{Ref: x, Op: graph.Placeholder, ShardDim: 1},
		{Ref: w, Op: graph.Parameter, ShardDim: 0},
		{Ref: y, Op: graph.MatMul, ShardDim: -1, FlopsScaled: true},
		dist.Comm(y, collective.ReduceScatter, 0, 0),
		{Ref: r, Op: graph.ReLU, ShardDim: -1, FlopsScaled: true},
		dist.Comm(y, collective.PaddedAllGather, 0, 0),
		{Ref: g.Loss, Op: graph.Sum, ShardDim: -1},
	}}
	changed, err := CommFusion{}.Run(p, testCluster())
	if err != nil {
		t.Fatal(err)
	}
	if changed != 0 {
		t.Errorf("CommFusion rewrote %d pairs across an intervening reader, want 0:\n%s", changed, p)
	}
}

func TestCommFusionMismatchedDimsUntouched(t *testing.T) {
	// reduce-scatter(0) + all-gather(1) is not an all-reduce (the gather
	// reassembles the wrong dimension); the pass must leave it alone.
	p := reductionProgram(t,
		comm(collective.ReduceScatter, 0, 0),
		comm(collective.PaddedAllGather, 1, 0),
	)
	changed, err := CommFusion{}.Run(p, testCluster())
	if err != nil {
		t.Fatal(err)
	}
	if changed != 0 {
		t.Errorf("CommFusion fused mismatched dims (%d rewrites):\n%s", changed, p)
	}
}

func TestCollectiveCSEDedupsRepeatedCollective(t *testing.T) {
	p := reductionProgram(t,
		comm(collective.AllReduce, 0, 0),
		comm(collective.AllReduce, 0, 0),
	)
	changed, err := CollectiveCSE{}.Run(p, testCluster())
	if err != nil {
		t.Fatal(err)
	}
	if changed != 1 || p.NumComms() != 1 {
		t.Errorf("CSE removed %d (program has %d collectives), want 1 and 1:\n%s", changed, p.NumComms(), p)
	}
	// A different collective between two identical ones is not a repeat.
	p = reductionProgram(t,
		comm(collective.ReduceScatter, 0, 0),
		comm(collective.PaddedAllGather, 0, 0),
		comm(collective.ReduceScatter, 0, 0),
	)
	changed, err = CollectiveCSE{}.Run(p, testCluster())
	if err != nil {
		t.Fatal(err)
	}
	if changed != 0 {
		t.Errorf("CSE removed %d collectives from an alternating sequence, want 0", changed)
	}
}

// breakerPass deliberately corrupts the program to prove the pipeline's
// validation gate fails fast at the pass boundary.
type breakerPass struct{}

func (breakerPass) Name() string { return "breaker" }
func (breakerPass) Run(p *dist.Program, c *cluster.Cluster) (int, error) {
	p.Instrs = p.Instrs[1:] // drop a leaf loader: use-before-def downstream
	return 1, nil
}

func TestPipelineValidatesAfterEveryPass(t *testing.T) {
	p := reductionProgram(t, comm(collective.AllReduce, 0, 0))
	pl := &Pipeline{Passes: []Pass{breakerPass{}}}
	if _, err := pl.Run(p, testCluster()); err == nil {
		t.Fatal("pipeline accepted a pass that broke SSA well-formedness")
	}
}

// errPass returns an error to prove pipeline error wrapping preserves it.
type errPass struct{}

func (errPass) Name() string { return "err" }
func (errPass) Run(p *dist.Program, c *cluster.Cluster) (int, error) {
	return 0, errInjected
}

var errInjected = errors.New("injected")

func TestPipelinePropagatesPassErrors(t *testing.T) {
	p := reductionProgram(t)
	pl := &Pipeline{Passes: []Pass{errPass{}}}
	if _, err := pl.Run(p, testCluster()); !errors.Is(err, errInjected) {
		t.Fatalf("pipeline error = %v, want wrapped injected error", err)
	}
}

func TestPipelineFixedPointOnCleanProgram(t *testing.T) {
	// A synthesized-shape program (one collective, nothing dead) is already
	// at the fixed point: one confirming round, zero changes.
	p := reductionProgram(t, comm(collective.AllReduce, 0, 0))
	before := p.String()
	st, err := Default().Run(p, testCluster())
	if err != nil {
		t.Fatal(err)
	}
	if st.Changed != 0 || st.Rounds != 1 {
		t.Errorf("clean program: %d changes in %d rounds, want 0 in 1", st.Changed, st.Rounds)
	}
	if p.String() != before {
		t.Errorf("clean program rewritten:\nbefore:\n%s\nafter:\n%s", before, p)
	}
}
