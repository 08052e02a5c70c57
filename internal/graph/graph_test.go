package graph

import (
	"strings"
	"testing"

	"hap/internal/tensor"
)

// buildMLP constructs loss = sum(relu(x·w1)·w2), the running example family
// used throughout the paper.
func buildMLP(t *testing.T) *Graph {
	t.Helper()
	g := New()
	x := g.AddPlaceholder("x", 0, 8, 4)
	w1 := g.AddParameter("w1", 4, 6)
	w2 := g.AddParameter("w2", 6, 3)
	h := g.AddOp(MatMul, x, w1)
	a := g.AddOp(ReLU, h)
	y := g.AddOp(MatMul, a, w2)
	g.SetLoss(g.AddOp(Sum, y))
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return g
}

func TestShapeInference(t *testing.T) {
	g := buildMLP(t)
	want := map[string][]int{
		"e3": {8, 6}, // x·w1
		"e4": {8, 6}, // relu
		"e5": {8, 3}, // ·w2
		"e6": {},     // sum
	}
	for i := 3; i <= 6; i++ {
		got := g.Node(NodeID(i)).Shape
		w := want[strings.Join([]string{"e", string(rune('0' + i))}, "")]
		if len(got) != len(w) {
			t.Errorf("node %d shape %v, want %v", i, got, w)
			continue
		}
		for j := range w {
			if got[j] != w[j] {
				t.Errorf("node %d shape %v, want %v", i, got, w)
			}
		}
	}
}

func TestMatMulShapeMismatchPanics(t *testing.T) {
	g := New()
	x := g.AddPlaceholder("x", 0, 8, 4)
	w := g.AddParameter("w", 5, 6)
	defer func() {
		if recover() == nil {
			t.Error("matmul with mismatched shapes did not panic")
		}
	}()
	g.AddOp(MatMul, x, w)
}

// TestInferShapeReturnsErrors holds the shape rule to errors where the
// inference it replaced panicked or indexed past an operand, and to
// ErrDeclaredShape for every kind whose shape is declared.
func TestInferShapeReturnsErrors(t *testing.T) {
	for _, tc := range []struct {
		kind OpKind
		in   [2]tensor.Shape
		want string
	}{
		{MatMul, [2]tensor.Shape{{8, 4}, {5, 6}}, "graph: matmul shape mismatch [8 4] · [5 6]"},
		{MatMul, [2]tensor.Shape{{8, 4}}, "graph: matmul shape mismatch [8 4] · []"},
		{Transpose, [2]tensor.Shape{{8}}, "graph: transpose needs rank 2, got [8]"},
		{Add, [2]tensor.Shape{{8, 4}, {4, 8}}, "graph: add shape mismatch [8 4] vs [4 8]"},
		{SoftmaxGrad, [2]tensor.Shape{{8, 4}, {8}}, "graph: softmax_grad shape mismatch [8 4] vs [8]"},
		{Dispatch, [2]tensor.Shape{{8}, {8, 2}}, "graph: dispatch shape mismatch [8], [8 2]"},
		{Dispatch, [2]tensor.Shape{{8, 4}, {8, 0}}, "graph: dispatch shape mismatch [8 4], [8 0]"},
		{ExpertMM, [2]tensor.Shape{{2, 4, 8}, {2, 4, 8}}, "graph: expert_mm shape mismatch [2 4 8] · [2 4 8]"},
		{Combine, [2]tensor.Shape{{2, 4}, {8, 2}}, "graph: combine shape mismatch [2 4], [8 2]"},
		{Combine, [2]tensor.Shape{{2, 4, 4}, {8}}, "graph: combine shape mismatch [2 4 4], [8]"},
	} {
		if _, err := InferShape(tc.kind, tc.in, nil); err == nil || err.Error() != tc.want {
			t.Errorf("%v on %v: error %v, want %q", tc.kind, tc.in, err, tc.want)
		}
	}
	for _, k := range []OpKind{Placeholder, Parameter, Ones, Expand, Conv, ConvGradX, ConvGradW,
		DispatchGrad, ExpertMMGradX, ExpertMMGradW, CombineGrad, CombineGradG,
		Embed, EmbedGrad, Attention, AttentionGrad, Pool, PoolGrad} {
		if _, err := InferShape(k, [2]tensor.Shape{{8, 4}, {8, 4}}, nil); err != ErrDeclaredShape {
			t.Errorf("%v: error %v, want ErrDeclaredShape", k, err)
		}
	}
	var buf [4]int
	in := [2]tensor.Shape{{8, 4}, {4, 6}}
	if got := testing.AllocsPerRun(10, func() {
		if s, err := InferShape(MatMul, in, buf[:0]); err != nil || !s.Equal(tensor.Shape{8, 6}) {
			t.Fatalf("matmul: %v, %v", s, err)
		}
	}); got != 0 {
		t.Errorf("a success into a buffer with room allocates %.0f times, want 0", got)
	}
}

// TestBuilderPanicsWithTheRulesError: a builder keeps panicking on shapes
// the op cannot take, with the rule's message.
func TestBuilderPanicsWithTheRulesError(t *testing.T) {
	for _, tc := range []struct {
		build func(g *Graph)
		want  string
	}{
		{func(g *Graph) { g.AddOp(MatMul, g.AddPlaceholder("x", 0, 8, 4), g.AddParameter("w", 5, 6)) }, "graph: matmul shape mismatch [8 4] · [5 6]"},
		{func(g *Graph) { g.AddOp(EmbedGrad, g.AddParameter("ids", 8), g.AddParameter("gy", 8, 4)) }, "graph: cannot infer shape for embed_grad"},
	} {
		func() {
			defer func() {
				if err, ok := recover().(error); !ok || err.Error() != tc.want {
					t.Errorf("panic %v, want the error %q", err, tc.want)
				}
			}()
			tc.build(New())
		}()
	}
}

// rankGraph is loss = sum(x ∘ w) over two tensors of the given rank.
func rankGraph(rank int) *Graph {
	shape := make([]int, rank)
	for i := range shape {
		shape[i] = 1
	}
	shape[0] = 4
	g := New()
	x := g.AddPlaceholder("x", 0, shape...)
	g.SetLoss(g.AddOp(Sum, g.AddOp(Mul, x, g.AddParameter("w", shape...))))
	return g
}

// TestValidateRefusesRankAboveMax: a rank past what an int8 dimension can
// name is refused before any theory is built from the graph.
func TestValidateRefusesRankAboveMax(t *testing.T) {
	if err := rankGraph(MaxRank).Validate(); err != nil {
		t.Errorf("rank %d: %v", MaxRank, err)
	}
	want := "graph: node 0 (placeholder) has rank 129, above 128"
	if err := rankGraph(MaxRank + 1).Validate(); err == nil || err.Error() != want {
		t.Errorf("rank %d: error %v, want %q", MaxRank+1, err, want)
	}
}

func TestValidateRefusesUnknownKind(t *testing.T) {
	g := buildMLP(t)
	g.Nodes[1].Kind = OpKind(len(arity))
	want := "graph: node 1 has unknown op kind 35"
	if err := g.Validate(); err == nil || err.Error() != want {
		t.Errorf("error %v, want %q", err, want)
	}
}

func TestBatchDimPropagation(t *testing.T) {
	g := New()
	x := g.AddPlaceholder("x", 0, 8, 4)
	w := g.AddParameter("w", 4, 6)
	h := g.AddOp(MatMul, x, w)
	if got := g.Node(h).BatchDim; got != 0 {
		t.Errorf("matmul batch dim = %d, want 0", got)
	}
	ht := g.AddOp(Transpose, h)
	if got := g.Node(ht).BatchDim; got != 1 {
		t.Errorf("transpose batch dim = %d, want 1", got)
	}
	r := g.AddOp(ReLU, h)
	if got := g.Node(r).BatchDim; got != 0 {
		t.Errorf("relu batch dim = %d, want 0", got)
	}
	if got := g.Node(w).BatchDim; got != -1 {
		t.Errorf("parameter batch dim = %d, want -1", got)
	}
}

func TestFlops(t *testing.T) {
	g := buildMLP(t)
	// matmul (8,4)·(4,6): 2*8*4*6 = 384
	if got := g.Flops(3); got != 384 {
		t.Errorf("matmul flops = %v, want 384", got)
	}
	// relu on (8,6): 48
	if got := g.Flops(4); got != 48 {
		t.Errorf("relu flops = %v, want 48", got)
	}
	// sum over (8,3): 24
	if got := g.Flops(6); got != 24 {
		t.Errorf("sum flops = %v, want 24", got)
	}
	if g.TotalFlops() <= 0 {
		t.Error("TotalFlops should be positive")
	}
}

func TestParameterAccounting(t *testing.T) {
	g := buildMLP(t)
	if got := g.ParameterCount(); got != 4*6+6*3 {
		t.Errorf("ParameterCount = %d, want 42", got)
	}
	if got := g.ParameterBytes(); got != 42*BytesPerElement {
		t.Errorf("ParameterBytes = %v", got)
	}
}

func TestConsumers(t *testing.T) {
	g := buildMLP(t)
	cons := g.Consumers()
	if len(cons[0]) != 1 || cons[0][0] != 3 {
		t.Errorf("consumers of x = %v, want [3]", cons[0])
	}
	if len(cons[5]) != 1 || cons[5][0] != 6 {
		t.Errorf("consumers of y = %v, want [6]", cons[5])
	}
}

func TestValidateCatchesTopologyViolation(t *testing.T) {
	g := buildMLP(t)
	g.Nodes[2].Inputs = []NodeID{5} // parameter referencing later node
	if err := g.Validate(); err == nil {
		t.Error("Validate accepted forward reference")
	}
}

func TestValidateCatchesArity(t *testing.T) {
	g := buildMLP(t)
	g.Nodes[3].Inputs = []NodeID{0}
	if err := g.Validate(); err == nil {
		t.Error("Validate accepted matmul with 1 input")
	}
}

func TestSetLossRequiresScalar(t *testing.T) {
	g := New()
	x := g.AddPlaceholder("x", 0, 2, 2)
	defer func() {
		if recover() == nil {
			t.Error("SetLoss on non-scalar did not panic")
		}
	}()
	g.SetLoss(x)
}

func TestConvNode(t *testing.T) {
	g := New()
	x := g.AddPlaceholder("x", 0, 32, 3*224*224)
	w := g.AddParameter("w", 9*3, 64)
	c := g.AddConv(x, w, 64*224*224, 2*224*224*9*3*64)
	n := g.Node(c)
	if n.Shape[0] != 32 || n.Shape[1] != 64*224*224 {
		t.Errorf("conv shape = %v", n.Shape)
	}
	wantFlops := 2.0 * 224 * 224 * 9 * 3 * 64 * 32
	if got := g.Flops(c); got != wantFlops {
		t.Errorf("conv flops = %g, want %g", got, wantFlops)
	}
	if n.BatchDim != 0 {
		t.Errorf("conv batch dim = %d", n.BatchDim)
	}
}

func TestMoEShapes(t *testing.T) {
	g := New()
	x := g.AddPlaceholder("x", 0, 64, 128) // 64 tokens, hidden 128
	wg := g.AddParameter("wg", 128, 8)     // 8 experts
	logits := g.AddOp(MatMul, x, wg)
	gates := g.AddOp(Softmax, logits)
	d := g.AddOp(Dispatch, x, gates)
	if s := g.Node(d).Shape; s[0] != 8 || s[1] != 8 || s[2] != 128 {
		t.Fatalf("dispatch shape = %v, want [8 8 128]", s)
	}
	w1 := g.AddParameter("w1", 8, 128, 512)
	e := g.AddOp(ExpertMM, d, w1)
	if s := g.Node(e).Shape; s[0] != 8 || s[1] != 8 || s[2] != 512 {
		t.Fatalf("expert_mm shape = %v, want [8 8 512]", s)
	}
	w2 := g.AddParameter("w2", 8, 512, 128)
	e2 := g.AddOp(ExpertMM, e, w2)
	y := g.AddOp(Combine, e2, gates)
	if s := g.Node(y).Shape; s[0] != 64 || s[1] != 128 {
		t.Fatalf("combine shape = %v, want [64 128]", s)
	}
	// ExpertMM flops: 2 * E*C*H*F = 2*8*8*128*512
	if got, want := g.Flops(e), 2.0*8*8*128*512; got != want {
		t.Errorf("expert_mm flops = %g, want %g", got, want)
	}
}

func TestStringRendering(t *testing.T) {
	g := buildMLP(t)
	s := g.String()
	for _, want := range []string{"e0 = placeholder()", "matmul(e0, e1)", "# loss"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q:\n%s", want, s)
		}
	}
}

func TestSegments(t *testing.T) {
	g := buildMLP(t)
	if g.NumSegments() != 1 {
		t.Errorf("unsegmented graph NumSegments = %d", g.NumSegments())
	}
	g.SegmentOf = []int{0, 0, 0, 0, 1, 1, 1}
	if g.NumSegments() != 2 {
		t.Errorf("NumSegments = %d, want 2", g.NumSegments())
	}
	if g.Segment(5) != 1 || g.Segment(2) != 0 {
		t.Error("Segment lookup wrong")
	}
	g.SegmentOf = []int{0}
	if err := g.Validate(); err == nil {
		t.Error("Validate accepted bad SegmentOf length")
	}
}
