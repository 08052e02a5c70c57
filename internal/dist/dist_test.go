package dist

import (
	"strings"
	"testing"

	"hap/internal/collective"
	"hap/internal/graph"
)

// trainingGraph hand-builds a tiny training graph with backward pass:
//
//	e0 x = placeholder(4, 8)   e4 ones = ones()
//	e1 w = parameter(8, 2)     e5 gy = expand(e4)
//	e2 y = matmul(e0, e1)      e6 xt = transpose(e0)
//	e3 loss = sum(e2)          e7 gw = matmul(e6, e5)
func trainingGraph(t testing.TB) *graph.Graph {
	t.Helper()
	g := graph.New()
	x := g.AddPlaceholder("x", 0, 4, 8)
	w := g.AddParameter("w", 8, 2)
	y := g.AddOp(graph.MatMul, x, w)
	g.SetLoss(g.AddOp(graph.Sum, y))
	ones := g.AddOnes()
	gy := g.AddExpand(ones, g.Node(y).Shape)
	xt := g.AddOp(graph.Transpose, x)
	gw := g.AddOp(graph.MatMul, xt, gy)
	g.Grads[w] = gw
	if err := g.Validate(); err != nil {
		t.Fatalf("graph invalid: %v", err)
	}
	return g
}

// dataParallel builds the canonical data-parallel program over trainingGraph:
// batch-sharded placeholder, replicated parameter, all-reduced gradient.
func dataParallel(t testing.TB, g *graph.Graph) *Program {
	t.Helper()
	p := &Program{Graph: g}
	add := func(in Instruction) { p.Instrs = append(p.Instrs, in) }
	add(Instruction{Ref: 0, Op: graph.Placeholder, ShardDim: 0})
	add(Instruction{Ref: 1, Op: graph.Parameter, ShardDim: -1})
	add(Instruction{Ref: 2, Op: graph.MatMul, ShardDim: -1, FlopsScaled: true})
	add(Instruction{Ref: 3, Op: graph.Sum, ShardDim: -1, FlopsScaled: true})
	add(Instruction{Ref: 4, Op: graph.Ones, ShardDim: -1})
	add(Instruction{Ref: 5, Op: graph.Expand, ShardDim: 0, FlopsScaled: true})
	add(Instruction{Ref: 6, Op: graph.Transpose, ShardDim: -1, FlopsScaled: true})
	add(Instruction{Ref: 7, Op: graph.MatMul, ShardDim: -1, FlopsScaled: true})
	add(Comm(7, collective.AllReduce, 0, 0))
	return p
}

func TestValidateAcceptsWellFormedProgram(t *testing.T) {
	g := trainingGraph(t)
	p := dataParallel(t, g)
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestValidateRejections(t *testing.T) {
	g := trainingGraph(t)
	cases := []struct {
		name    string
		mutate  func(p *Program)
		wantSub string
	}{
		{"use before def", func(p *Program) {
			// Move the matmul before its placeholder input's loader.
			p.Instrs[0], p.Instrs[2] = p.Instrs[2], p.Instrs[0]
		}, "before it is defined"},
		{"bad shard dim", func(p *Program) {
			p.Instrs[0].ShardDim = 5
		}, "shard dim 5 out of range"},
		{"dangling comm ref", func(p *Program) {
			p.Instrs[len(p.Instrs)-1] = Comm(42, collective.AllReduce, 0, 0)
		}, "outside the"},
		{"comm before produced", func(p *Program) {
			p.Instrs[len(p.Instrs)-1] = p.Instrs[0]
			p.Instrs[0] = Comm(0, collective.AllReduce, 0, 0)
		}, "before it is produced"},
		{"comm dim out of range", func(p *Program) {
			p.Instrs = append(p.Instrs, Comm(2, collective.PaddedAllGather, 3, 0))
		}, "dim 3 out of range"},
		{"all-to-all same dims", func(p *Program) {
			p.Instrs = append(p.Instrs, Comm(2, collective.AllToAll, 1, 1))
		}, "onto itself"},
		{"computed twice", func(p *Program) {
			p.Instrs = append(p.Instrs, p.Instrs[2])
		}, "computed twice"},
		{"op mismatch", func(p *Program) {
			p.Instrs[2].Op = graph.Add
		}, "does not match"},
		{"missing gradient", func(p *Program) {
			p.Instrs = p.Instrs[:len(p.Instrs)-2]
		}, "never materialized"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := dataParallel(t, g)
			tc.mutate(p)
			err := p.Validate()
			if err == nil {
				t.Fatalf("Validate accepted an ill-formed program:\n%s", p)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Errorf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
}

func TestNumCommsAndStats(t *testing.T) {
	g := trainingGraph(t)
	p := dataParallel(t, g)
	if got := p.NumComms(); got != 1 {
		t.Errorf("NumComms = %d, want 1", got)
	}
	st := p.Stats()
	if st.Instrs != 9 || st.Comms != 1 || st.FlopsScaled != 5 {
		t.Errorf("Stats = %+v, want 9 instrs / 1 comm / 5 flops-scaled", st)
	}
	if st.PerCollective[collective.AllReduce] != 1 || len(st.PerCollective) != 1 {
		t.Errorf("PerCollective = %v, want all-reduce:1 only", st.PerCollective)
	}
	if cc := p.CollectiveCount(); cc[collective.AllReduce] != 1 {
		t.Errorf("CollectiveCount = %v", cc)
	}
}

func TestStringGolden(t *testing.T) {
	g := trainingGraph(t)
	p := dataParallel(t, g)
	want := strings.Join([]string{
		"e0 = placeholder-shard(0)  # x",
		"e1 = parameter()  # w",
		"e2 = matmul(e0, e1)",
		"e3 = sum(e2)  # loss",
		"e4 = ones()",
		"e5 = expand-shard(e4, 0)",
		"e6 = transpose(e0)",
		"e7 = matmul(e6, e5)",
		"e7 = all-reduce(e7)",
	}, "\n") + "\n"
	if got := p.String(); got != want {
		t.Errorf("String:\n%s\nwant:\n%s", got, want)
	}
}

func TestCommStringNotation(t *testing.T) {
	cases := []struct {
		in   Instruction
		want string
	}{
		{Comm(3, collective.PaddedAllGather, 1, 0), "all-gather(e3, 1)"},
		{Comm(3, collective.GroupedBroadcast, 0, 0), "grouped-broadcast(e3, 0)"},
		{Comm(3, collective.ReduceScatter, 1, 0), "reduce-scatter(e3, 1)"},
		{Comm(3, collective.AllReduce, 0, 0), "all-reduce(e3)"},
		{Comm(3, collective.AllToAll, 1, 0), "all-to-all(e3, 1, 0)"},
	}
	for _, tc := range cases {
		if got := tc.in.Text(nil); got != tc.want {
			t.Errorf("Text = %q, want %q", got, tc.want)
		}
	}
}

func TestSFBProgramMarksReplicatedComputation(t *testing.T) {
	g := trainingGraph(t)
	p := dataParallel(t, g)
	// Replicated gradient matmul (the SFB pattern) instead of all-reduce.
	p.Instrs[7].FlopsScaled = false
	p.Instrs = p.Instrs[:8]
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if !strings.Contains(p.String(), "e7 = matmul(e6, e5)  # replicated") {
		t.Errorf("replicated computation not annotated:\n%s", p)
	}
}

func TestCloneIsIndependent(t *testing.T) {
	g := trainingGraph(t)
	p := dataParallel(t, g)
	before := p.String()
	cp := p.Clone()
	if cp.Graph != p.Graph {
		t.Error("Clone must share the graph")
	}
	if cp.String() != before {
		t.Fatalf("Clone differs from original:\n%s\nvs\n%s", cp, p)
	}
	// Mutating the clone's instructions must not leak back.
	cp.Instrs[len(cp.Instrs)-1] = Comm(7, collective.ReduceScatter, 0, 0)
	cp.Instrs[2].FlopsScaled = false
	cp.Instrs = cp.Instrs[:3]
	if p.String() != before {
		t.Errorf("mutating the clone changed the original:\n%s", p)
	}
}

// A program missing several gradients is refused with one error, naming the
// lowest parameter's, however the gradient map iterates.
func TestValidateMissingGradientsDeterministic(t *testing.T) {
	g := graph.New()
	x := g.AddPlaceholder("x", 0, 4, 8)
	p := &Program{Graph: g}
	p.Instrs = append(p.Instrs, Instruction{Ref: x, Op: graph.Placeholder, ShardDim: 0})
	for i := 0; i < 3; i++ {
		w := g.AddParameter("w", 8, 8)
		p.Instrs = append(p.Instrs, Instruction{Ref: w, Op: graph.Parameter, ShardDim: -1})
		g.Grads[w] = g.AddOp(graph.Transpose, w)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("graph invalid: %v", err)
	}
	const want = "dist: gradient e2 of parameter e1 is never materialized"
	for run := 0; run < 50; run++ {
		if err := p.Validate(); err == nil || err.Error() != want {
			t.Fatalf("run %d: error %v, want %q", run, err, want)
		}
	}
}
