package theory

import (
	"testing"

	"hap/internal/autodiff"
	"hap/internal/graph"
)

func matmulGraph() (*graph.Graph, graph.NodeID) {
	g := graph.New()
	x := g.AddPlaceholder("x", 0, 8, 4)
	w := g.AddParameter("w", 4, 6)
	y := g.AddOp(graph.MatMul, x, w)
	g.SetLoss(g.AddOp(graph.Sum, y))
	return g, y
}

func TestMatMulRules(t *testing.T) {
	g, y := matmulGraph()
	th := New(g)
	triples := th.ByNode[y]
	// The paper's four MatMul rules, minus the batch-dim restriction: the
	// placeholder can only shard dim 0, so the column-parallel rule
	// ({x|Id, w|AG(1)}) and the replicated rule survive leaf checks, and
	// the reduction rule ({x|AG(1), ...}) is dropped (x cannot shard dim 1).
	kinds := map[string]bool{}
	for _, tr := range triples {
		kinds[tr.Out.String()] = true
	}
	if len(triples) != 3 {
		t.Errorf("matmul triples = %d, want 3 (data/column/replicated)", len(triples))
	}
	if !kinds["e2|all-gather(0)"] {
		t.Error("missing data-parallel rule")
	}
	if !kinds["e2|all-gather(1)"] {
		t.Error("missing column-parallel rule")
	}
	if !kinds["e2|identity"] {
		t.Error("missing replicated rule")
	}
}

func TestPlaceholderShardRestrictedToBatchDim(t *testing.T) {
	g, y := matmulGraph()
	th := New(g)
	for _, tr := range th.ByNode[y] {
		for _, p := range tr.LeafPre {
			if g.Node(p.Ref).Kind == graph.Placeholder && p.Kind == Gather && p.Dim != 0 {
				t.Errorf("placeholder sharded on dim %d", p.Dim)
			}
		}
	}
}

func TestSoftmaxCannotShardLastDim(t *testing.T) {
	g := graph.New()
	x := g.AddPlaceholder("x", 0, 8, 4)
	s := g.AddOp(graph.Softmax, x)
	g.SetLoss(g.AddOp(graph.Sum, s))
	th := New(g)
	for _, tr := range th.ByNode[s] {
		if tr.Out.Kind == Gather && tr.Out.Dim == 1 {
			t.Error("softmax sharded on its normalization dim")
		}
	}
}

func TestRequiredSetExcludesDeadBranches(t *testing.T) {
	g := graph.New()
	x := g.AddPlaceholder("x", 0, 4, 4)
	dead := g.AddOp(graph.ReLU, x) // not on any output path
	g.SetLoss(g.AddOp(graph.Sum, x))
	th := New(g)
	if th.Required[dead] {
		t.Error("dead branch marked required")
	}
	if !th.Required[g.Loss] || !th.Required[x] {
		t.Error("live path not marked required")
	}
}

func TestOutputsIncludeLossAndGrads(t *testing.T) {
	g, _ := matmulGraph()
	if err := autodiff.Backward(g); err != nil {
		t.Fatal(err)
	}
	th := New(g)
	if len(th.Outputs) != 1+len(g.Params) {
		t.Errorf("outputs = %d, want %d", len(th.Outputs), 1+len(g.Params))
	}
}

func TestAcceptable(t *testing.T) {
	loss := Output{Ref: 7, Param: -1}
	if !loss.Acceptable(Pending(7), -1) || !loss.Acceptable(Id(7), -1) {
		t.Error("loss should accept all-reduce and identity")
	}
	if loss.Acceptable(Shard(7, 0), -1) {
		t.Error("loss should not accept a shard")
	}
	grad := Output{Ref: 9, Param: 2}
	if !grad.Acceptable(Shard(9, 1), 1) {
		t.Error("grad should accept matching shard dim")
	}
	if grad.Acceptable(Shard(9, 0), 1) {
		t.Error("grad should reject mismatched shard dim")
	}
	if !grad.Acceptable(Id(9), -1) {
		t.Error("full grad is always applicable")
	}
	if grad.Acceptable(Pending(9), -1) {
		t.Error("pending-reduce grad is not applicable locally")
	}
}

func TestFilterRecomputesWanted(t *testing.T) {
	g, y := matmulGraph()
	th := New(g)
	only := th.Filter(func(tr *Triple) bool {
		return tr.Node == y && tr.Out.Kind == Gather && tr.Out.Dim == 0
	})
	if n := len(only.ByNode[y]); n != 1 {
		t.Fatalf("filtered triples = %d, want 1", n)
	}
	if len(only.Wanted) >= len(th.Wanted) && len(th.Wanted) > 0 {
		t.Error("Wanted not shrunk by filter")
	}
}

func TestExpandShardInstrCarriesDim(t *testing.T) {
	g := graph.New()
	one := g.AddOnes()
	e := g.AddExpand(one, []int{4, 4})
	g.SetLoss(g.AddOp(graph.Sum, e))
	th := New(g)
	foundShard := false
	for _, tr := range th.ByNode[e] {
		in := tr.Instr(g)
		if tr.Out.Kind == Gather {
			foundShard = true
			if in.ShardDim != int(tr.Out.Dim) {
				t.Errorf("expand-shard instr dim %d != out dim %d", in.ShardDim, tr.Out.Dim)
			}
		} else if in.ShardDim != -1 {
			t.Errorf("replicated expand instr has shard dim %d", in.ShardDim)
		}
	}
	if !foundShard {
		t.Error("no sharded expand rule")
	}
}

func TestEveryModelOpHasRules(t *testing.T) {
	// Build a graph touching every op kind that the models use, apply
	// backward, and confirm every required non-leaf node has ≥1 triple.
	g := graph.New()
	ids := g.AddPlaceholder("ids", 0, 64)
	table := g.AddParameter("tbl", 100, 16)
	x := g.AddEmbed(ids, table)
	wqkv := g.AddParameter("wqkv", 16, 48)
	attn := g.AddAttention(g.AddOp(graph.MatMul, x, wqkv), 8)
	x1 := g.AddOp(graph.Add, x, g.AddOp(graph.GeLU, attn))
	wg := g.AddParameter("wg", 16, 4)
	gates := g.AddOp(graph.Softmax, g.AddOp(graph.MatMul, x1, wg))
	d := g.AddOp(graph.Dispatch, x1, gates)
	w1 := g.AddParameter("w1", 4, 16, 32)
	e1 := g.AddOp(graph.ExpertMM, d, w1)
	w2 := g.AddParameter("w2", 4, 32, 16)
	e2 := g.AddOp(graph.ExpertMM, g.AddOp(graph.ReLU, e1), w2)
	y := g.AddOp(graph.Combine, e2, gates)
	g.SetLoss(g.AddOp(graph.Sum, g.AddScale(y, 0.1)))
	if err := autodiff.Backward(g); err != nil {
		t.Fatal(err)
	}
	th := New(g)
	for i := range g.Nodes {
		id := graph.NodeID(i)
		if th.Required[id] && !g.Node(id).Kind.IsLeaf() && len(th.ByNode[id]) == 0 {
			t.Errorf("node e%d (%v) has no rules", id, g.Node(id).Kind)
		}
	}
}
