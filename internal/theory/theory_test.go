package theory

import (
	"testing"
	"unsafe"

	"hap/internal/autodiff"
	"hap/internal/collective"
	"hap/internal/dist"
	"hap/internal/graph"
	"hap/internal/models"
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
		for _, p := range tr.LeafPre() {
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
	// The Sum consuming y wanted it in every form; with Sum's triples
	// filtered out, nothing is wanted any more.
	if !th.IsWanted(Id(y)) || !th.IsWanted(Pending(y)) || !th.IsWanted(Shard(y, 1)) {
		t.Error("the Sum's preconditions on y are not wanted")
	}
	if n, m := countWanted(only), countWanted(th); n >= m || n != 0 {
		t.Errorf("filtered theory wants %d properties, unfiltered %d: want 0 of more", n, m)
	}
}

// countWanted counts the properties IsWanted accepts among every form every
// tensor of the theory's graph can take.
func countWanted(th *Theory) int {
	n := 0
	for i, node := range th.Graph.Nodes {
		id := graph.NodeID(i)
		ps := []Property{Id(id), Pending(id)}
		for d := range node.Shape {
			ps = append(ps, Shard(id, d))
		}
		for _, p := range ps {
			if th.IsWanted(p) {
				n++
			}
		}
	}
	return n
}

// IsWanted answers every property, including Gather dimensions past 30 (the
// old dense mask's width) and refs outside the graph.
func TestIsWantedWideGather(t *testing.T) {
	g := graph.New()
	shape := make([]int, 40)
	for i := range shape {
		shape[i] = 2
	}
	x := g.AddPlaceholder("x", 0, shape...)
	r := g.AddOp(graph.ReLU, x)
	s := g.AddOp(graph.ReLU, r)
	g.SetLoss(g.AddOp(graph.Sum, s))
	th := New(g)
	for d := 0; d < 40; d++ {
		if !th.IsWanted(Shard(r, d)) {
			t.Errorf("ReLU input wanted sharded on dim %d: IsWanted = false", d)
		}
	}
	for _, p := range []Property{Shard(r, 40), Shard(r, 127), Shard(r, -1), Shard(x, 0), Id(graph.NodeID(g.NumNodes())), Id(-1), {Ref: r, Kind: 7}} {
		if th.IsWanted(p) {
			t.Errorf("IsWanted(%v) = true, want false", p)
		}
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

// TestExpertParallel holds the expert-parallel restriction on BERT-MoE:
// every expert matmul, forward and both gradients, keeps exactly its
// expert-dimension rule, and every other node keeps all of its triples.
func TestExpertParallel(t *testing.T) {
	g := models.Build(models.ModelBERTMoE, 4)
	th := New(g)
	ep := th.Filter(func(tr *Triple) bool { return ExpertParallel(g, tr) })
	experts := 0
	for id, trs := range th.ByNode {
		switch g.Node(graph.NodeID(id)).Kind {
		case graph.ExpertMM, graph.ExpertMMGradX, graph.ExpertMMGradW:
			experts++
			kept := ep.ByNode[id]
			if len(kept) != 1 || kept[0].Out.Kind != Gather || kept[0].Out.Dim != 0 {
				t.Errorf("node %d (%v): kept %d triples, want its one expert-dimension rule", id, g.Node(graph.NodeID(id)).Kind, len(kept))
			}
		default:
			if len(ep.ByNode[id]) != len(trs) {
				t.Errorf("node %d (%v): kept %d of %d triples", id, g.Node(graph.NodeID(id)).Kind, len(ep.ByNode[id]), len(trs))
			}
		}
	}
	if experts == 0 {
		t.Fatal("BERT-MoE has no expert matmul")
	}
}

// TestInstructionLayout holds the packed sizes: an instruction is 40 bytes
// (its four one-byte fields share a word; 64 while it carried a copy of its
// node's input list, a slice header), a property is 16
// bytes, and a triple, which no longer embeds an instruction and holds its
// two requirements inline, is 64 bytes (80 while they were two slice
// headers into a slab of properties). The op and collective kinds are
// uint8, numbered from 0 by iota, so each enumeration must name fewer than
// 256 kinds: the count is the run of values from 0 that round-trip through
// their names.
func TestInstructionLayout(t *testing.T) {
	if n := unsafe.Sizeof(dist.Instruction{}); n != 40 {
		t.Errorf("dist.Instruction is %d bytes, want 40", n)
	}
	if n := unsafe.Sizeof(Property{}); n != 16 {
		t.Errorf("theory.Property is %d bytes, want 16", n)
	}
	if n := unsafe.Sizeof(Triple{}); n != 64 {
		t.Errorf("theory.Triple is %d bytes, want 64", n)
	}
	ops := 0
	for ; ops < 256; ops++ {
		if k, ok := graph.ParseOpKind(graph.OpKind(ops).String()); !ok || int(k) != ops {
			break
		}
	}
	colls := 0
	for ; colls < 256; colls++ {
		if k, ok := collective.ParseKind(collective.Kind(colls).String()); !ok || int(k) != colls {
			break
		}
	}
	t.Logf("%d op kinds, %d collective kinds", ops, colls)
	if ops == 0 || ops >= 256 || colls == 0 || colls >= 256 {
		t.Errorf("%d op kinds and %d collective kinds, want each 1 to 255", ops, colls)
	}
}
