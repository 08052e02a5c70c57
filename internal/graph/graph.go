// Package graph defines HAP's single-device computation-graph IR.
//
// A Graph is the "single-device DNN training program" of the paper (Sec. 3):
// a list of nodes in topological order, each producing one tensor. The
// program synthesizer consumes only the structure (op kinds, shapes, flops);
// the numeric runtime additionally executes supported ops on real data.
//
// This package is the substitute for the PyTorch fx graphs used by the
// paper's implementation.
package graph

import (
	"fmt"
	"slices"
	"strings"

	"hap/internal/tensor"
)

// NodeID identifies a node (and the tensor it produces) within a Graph.
type NodeID int

// OpKind enumerates the single-device instruction set.
type OpKind int

// Single-device op kinds. The *Grad kinds are produced by the autodiff pass.
const (
	// Leaves.
	Placeholder OpKind = iota // training input batch (has a batch dimension)
	Parameter                 // trainable parameter
	Ones                      // constant tensor of ones (seed of the backward pass)

	// Expand broadcasts a scalar to an explicit shape (backward of Sum).
	Expand

	// Dense algebra.
	MatMul    // (n,k)·(k,m) → (n,m)
	Transpose // (n,m) → (m,n)
	Add       // element-wise sum
	Mul       // element-wise (Hadamard) product
	Scale     // multiply by scalar attribute

	// Activations and reductions.
	ReLU
	Sigmoid
	GeLU
	Softmax // along last dim
	Sum     // full reduction → scalar (the loss)

	// Activation gradients: (x or y, upstream grad) → grad.
	ReLUGrad
	SigmoidGrad
	GeLUGrad
	SoftmaxGrad

	// Convolution, cost-only (no numeric execution): Conv(x, w) where x is
	// (batch, inFeatures), w is the filter parameter, output is
	// (batch, outFeatures). FLOPs come from the FlopsPerSample attribute.
	Conv
	ConvGradX // (w, gy) → grad of x
	ConvGradW // (x, gy) → grad of w

	// Mixture-of-Experts, cost-only. Shapes follow GShard:
	//   Dispatch(x, gates):   (T,H),(T,E) → (E,C,H)
	//   ExpertMM(d, w):       (E,C,H),(E,H,F) → (E,C,F)  batched per expert
	//   Combine(e, gates):    (E,C,H),(T,E) → (T,H)
	Dispatch
	ExpertMM
	Combine
	DispatchGrad // (gy) → grad of x
	ExpertMMGradX
	ExpertMMGradW
	CombineGrad  // (gy, gates) → grad of the expert output (E,C,H)
	CombineGradG // (gy, e) → grad of the gates (T,E)

	// Embedding lookup: Embed(ids, table) with ids (T,) and table (V,H)
	// produces (T,H). Gather cost, not a matmul.
	Embed
	EmbedGrad // (ids, gy) → grad of the table (V,H), a scatter-add

	// Attention core, cost-only: Attention(qkv) with qkv (T,3H) produces the
	// attended values (T,H). FLOPs 4·T·S·H with S the sequence length
	// (scores + context matmuls); heads do not change the flop count.
	Attention
	AttentionGrad // (qkv, gy) → (T,3H)

	// Spatial pooling, cost-only: Pool(x) with x (B,F) produces (B,F/4).
	Pool
	PoolGrad // (x, gy) → (B,F)
)

var opNames = map[OpKind]string{
	Placeholder: "placeholder", Parameter: "parameter", Ones: "ones", Expand: "expand",
	MatMul: "matmul", Transpose: "transpose", Add: "add", Mul: "mul", Scale: "scale",
	ReLU: "relu", Sigmoid: "sigmoid", GeLU: "gelu", Softmax: "softmax", Sum: "sum",
	ReLUGrad: "relu_grad", SigmoidGrad: "sigmoid_grad", GeLUGrad: "gelu_grad", SoftmaxGrad: "softmax_grad",
	Conv: "conv", ConvGradX: "conv_grad_x", ConvGradW: "conv_grad_w",
	Dispatch: "dispatch", ExpertMM: "expert_mm", Combine: "combine",
	DispatchGrad: "dispatch_grad", ExpertMMGradX: "expert_mm_grad_x", ExpertMMGradW: "expert_mm_grad_w",
	CombineGrad: "combine_grad", CombineGradG: "combine_grad_g",
	Embed: "embed", EmbedGrad: "embed_grad",
	Attention: "attention", AttentionGrad: "attention_grad",
	Pool: "pool", PoolGrad: "pool_grad",
}

func (k OpKind) String() string {
	if n, ok := opNames[k]; ok {
		return n
	}
	return fmt.Sprintf("op(%d)", int(k))
}

// IsLeaf reports whether k is a leaf kind: a tensor placed by a fused loader
// instruction rather than computed, and loaded locally rather than resharded.
func (k OpKind) IsLeaf() bool {
	return k == Placeholder || k == Parameter || k == Ones
}

// opByName is opNames reversed, for ParseOpKind.
var opByName = func() map[string]OpKind {
	m := make(map[string]OpKind, len(opNames))
	for k, n := range opNames {
		m[n] = k
	}
	return m
}()

// ParseOpKind returns the op kind with the given name (as produced by
// OpKind.String). Serialized programs store kinds by name so the format
// survives enum renumbering.
func ParseOpKind(name string) (OpKind, bool) {
	k, ok := opByName[name]
	return k, ok
}

// Node is one instruction of the single-device program, producing one tensor.
type Node struct {
	ID     NodeID
	Kind   OpKind
	Inputs []NodeID
	Shape  tensor.Shape
	Name   string

	// ScaleFactor is the multiplier for Scale nodes.
	ScaleFactor float64
	// FlopsPerSample overrides flops accounting for Conv-family nodes:
	// total flops = FlopsPerSample × batch size (dim 0 of the output).
	FlopsPerSample float64
	// BatchDim is the dimension of this node's output that carries the
	// data-parallel batch axis, or -1 if none. Builders set it on
	// Placeholder nodes; shape inference propagates it where meaningful.
	BatchDim int
}

// Graph is a single-device training program: nodes in topological order,
// a scalar loss output, parameters, and (after autodiff) parameter gradients.
type Graph struct {
	Nodes  []Node
	Loss   NodeID
	Params []NodeID
	// Grads maps each parameter to the node computing its gradient.
	// Populated by the autodiff pass.
	Grads map[NodeID]NodeID
	// ForwardCount is the number of nodes before the backward pass was
	// appended (0 when no backward pass exists).
	ForwardCount int
	// PrimalOf maps backward-pass nodes to the forward node whose
	// differentiation created them. Populated by the autodiff pass.
	PrimalOf map[NodeID]NodeID
	// SegmentOf optionally assigns each node to a model segment for
	// per-segment sharding ratios (Sec. 5.2). Empty means one segment.
	SegmentOf []int
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{Loss: -1, Grads: map[NodeID]NodeID{}, PrimalOf: map[NodeID]NodeID{}}
}

// Node returns the node with the given id.
func (g *Graph) Node(id NodeID) *Node { return &g.Nodes[id] }

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return len(g.Nodes) }

// add appends a node, inferring its output shape, and returns its id.
func (g *Graph) add(n Node) NodeID {
	n.ID = NodeID(len(g.Nodes))
	if n.Shape == nil {
		n.Shape = g.inferShape(&n)
	}
	if n.BatchDim == 0 && n.Kind != Placeholder {
		// Zero value means "unset" for non-placeholders; recompute.
		n.BatchDim = g.inferBatchDim(&n)
	}
	g.Nodes = append(g.Nodes, n)
	return n.ID
}

// AddPlaceholder appends a training-input node. batchDim marks the
// data-parallel axis of the input (-1 for none).
func (g *Graph) AddPlaceholder(name string, batchDim int, shape ...int) NodeID {
	return g.add(Node{Kind: Placeholder, Name: name, Shape: tensor.Shape(shape).Clone(), BatchDim: batchDim})
}

// AddParameter appends a trainable-parameter node.
func (g *Graph) AddParameter(name string, shape ...int) NodeID {
	id := g.add(Node{Kind: Parameter, Name: name, Shape: tensor.Shape(shape).Clone(), BatchDim: -1})
	g.Params = append(g.Params, id)
	return id
}

// AddOnes appends a constant all-ones node.
func (g *Graph) AddOnes(shape ...int) NodeID {
	return g.add(Node{Kind: Ones, Shape: tensor.Shape(shape).Clone(), BatchDim: -1})
}

// AddExpand appends a node broadcasting a scalar input to the given shape.
func (g *Graph) AddExpand(scalar NodeID, shape tensor.Shape) NodeID {
	return g.add(Node{Kind: Expand, Inputs: []NodeID{scalar}, Shape: shape.Clone(), BatchDim: -1})
}

// AddShaped appends a node with an explicit output shape (for grad kinds
// whose shape is not inferable from inputs alone).
func (g *Graph) AddShaped(kind OpKind, shape tensor.Shape, flopsPerSample float64, inputs ...NodeID) NodeID {
	return g.add(Node{Kind: kind, Inputs: inputs, Shape: shape.Clone(), FlopsPerSample: flopsPerSample, BatchDim: -1})
}

// AddOp appends a computation node of the given kind; the output shape is
// inferred from the inputs.
func (g *Graph) AddOp(kind OpKind, inputs ...NodeID) NodeID {
	return g.add(Node{Kind: kind, Inputs: inputs})
}

// AddScale appends a Scale node multiplying input by factor.
func (g *Graph) AddScale(input NodeID, factor float64) NodeID {
	return g.add(Node{Kind: Scale, Inputs: []NodeID{input}, ScaleFactor: factor})
}

// AddConv appends a cost-only convolution node: x (batch, inF) with filter
// parameter w produces (batch, outFeatures); flopsPerSample is the per-sample
// multiply-add count ×2.
func (g *Graph) AddConv(x, w NodeID, outFeatures int, flopsPerSample float64) NodeID {
	b := g.Node(x).Shape[0]
	return g.add(Node{
		Kind: Conv, Inputs: []NodeID{x, w},
		Shape: tensor.Shape{b, outFeatures}, FlopsPerSample: flopsPerSample,
	})
}

// AddEmbed appends an embedding lookup: ids (T,) into table (V,H) → (T,H).
func (g *Graph) AddEmbed(ids, table NodeID) NodeID {
	t := g.Node(ids).Shape[0]
	h := g.Node(table).Shape[1]
	return g.add(Node{Kind: Embed, Inputs: []NodeID{ids, table}, Shape: tensor.Shape{t, h}})
}

// AddAttention appends a cost-only attention core over qkv (T,3H) with the
// given sequence length, producing (T,H).
func (g *Graph) AddAttention(qkv NodeID, seqLen int) NodeID {
	s := g.Node(qkv).Shape
	h := s[1] / 3
	return g.add(Node{
		Kind: Attention, Inputs: []NodeID{qkv},
		Shape: tensor.Shape{s[0], h}, FlopsPerSample: 4 * float64(seqLen) * float64(h),
	})
}

// AddPool appends a cost-only 2×2 spatial pooling: (B,F) → (B,F/4).
func (g *Graph) AddPool(x NodeID) NodeID {
	s := g.Node(x).Shape
	return g.add(Node{Kind: Pool, Inputs: []NodeID{x}, Shape: tensor.Shape{s[0], s[1] / 4}})
}

// SetLoss marks the scalar loss output.
func (g *Graph) SetLoss(id NodeID) {
	if len(g.Node(id).Shape) != 0 {
		panic(fmt.Sprintf("graph: loss %d must be scalar, has shape %v", id, g.Node(id).Shape))
	}
	g.Loss = id
}

func (g *Graph) inferShape(n *Node) tensor.Shape {
	in := func(i int) tensor.Shape { return g.Node(n.Inputs[i]).Shape }
	switch n.Kind {
	case MatMul:
		a, b := in(0), in(1)
		if len(a) != 2 || len(b) != 2 || a[1] != b[0] {
			panic(fmt.Sprintf("graph: matmul shape mismatch %v · %v", a, b))
		}
		return tensor.Shape{a[0], b[1]}
	case Transpose:
		a := in(0)
		if len(a) != 2 {
			panic(fmt.Sprintf("graph: transpose needs rank 2, got %v", a))
		}
		return tensor.Shape{a[1], a[0]}
	case Add, Mul:
		a, b := in(0), in(1)
		if !a.Equal(b) {
			panic(fmt.Sprintf("graph: %v shape mismatch %v vs %v", n.Kind, a, b))
		}
		return a.Clone()
	case Scale, ReLU, Sigmoid, GeLU, Softmax:
		return in(0).Clone()
	case ReLUGrad, SigmoidGrad, GeLUGrad, SoftmaxGrad:
		a, b := in(0), in(1)
		if !a.Equal(b) {
			panic(fmt.Sprintf("graph: %v shape mismatch %v vs %v", n.Kind, a, b))
		}
		return a.Clone()
	case Sum:
		return tensor.Shape{}
	case ConvGradX:
		// (w, gy): grad has the shape of the conv input, which equals
		// (batch of gy, in-features of w's logical input) — builders use
		// AddOp with explicit wiring; shape = (gy[0], attr) is unknown here,
		// so ConvGradX nodes are added with explicit shapes by autodiff.
		panic("graph: ConvGradX requires explicit shape")
	case ConvGradW:
		panic("graph: ConvGradW requires explicit shape")
	case Dispatch:
		// x (T,H), gates (T,E) → (E, C, H) with capacity C = T/E (≥1).
		x, gates := in(0), in(1)
		t, h, e := x[0], x[1], gates[1]
		c := t / e
		if c == 0 {
			c = 1
		}
		return tensor.Shape{e, c, h}
	case ExpertMM:
		d, w := in(0), in(1)
		if len(d) != 3 || len(w) != 3 || d[0] != w[0] || d[2] != w[1] {
			panic(fmt.Sprintf("graph: expert_mm shape mismatch %v · %v", d, w))
		}
		return tensor.Shape{d[0], d[1], w[2]}
	case Combine:
		e, gates := in(0), in(1)
		return tensor.Shape{gates[0], e[2]}
	default:
		panic(fmt.Sprintf("graph: cannot infer shape for %v", n.Kind))
	}
}

// inferBatchDim propagates the batch axis through ops where the output keeps
// a recognizable batch dimension. It returns -1 when the notion is lost.
func (g *Graph) inferBatchDim(n *Node) int {
	bd := func(i int) int { return g.Node(n.Inputs[i]).BatchDim }
	switch n.Kind {
	case MatMul:
		if bd(0) == 0 {
			return 0
		}
		return -1
	case Transpose:
		switch bd(0) {
		case 0:
			return 1
		case 1:
			return 0
		}
		return -1
	case Add, Mul, Scale, ReLU, Sigmoid, GeLU, Softmax,
		ReLUGrad, SigmoidGrad, GeLUGrad, SoftmaxGrad:
		for i := range n.Inputs {
			if d := bd(i); d >= 0 {
				return d
			}
		}
		return -1
	case Conv, Embed, Attention, Pool:
		return 0
	default:
		return -1
	}
}

// Flops returns the floating-point operation count of a node on the full
// (unsharded) shapes. Leaves cost zero.
func (g *Graph) Flops(id NodeID) float64 {
	n := g.Node(id)
	numel := float64(n.Shape.NumElements())
	switch n.Kind {
	case Placeholder, Parameter, Ones, Expand:
		return 0
	case MatMul:
		a := g.Node(n.Inputs[0]).Shape
		return 2 * float64(a[0]) * float64(a[1]) * float64(n.Shape[1])
	case Transpose:
		return numel
	case Add, Mul, Scale, ReLU:
		return numel
	case Sigmoid, GeLU:
		return 8 * numel
	case Softmax:
		return 5 * numel
	case Sum:
		return float64(g.Node(n.Inputs[0]).Shape.NumElements())
	case ReLUGrad:
		return numel
	case SigmoidGrad, GeLUGrad:
		return 8 * numel
	case SoftmaxGrad:
		return 6 * numel
	case Conv:
		return n.FlopsPerSample * float64(n.Shape[0])
	case ConvGradX, ConvGradW, ExpertMMGradX, ExpertMMGradW:
		// Grad kinds take (other operand, gy); per-sample/per-expert cost
		// scales with dim 0 of the upstream gradient.
		return n.FlopsPerSample * float64(g.Node(n.Inputs[1]).Shape[0])
	case Dispatch, Combine, DispatchGrad, CombineGrad, CombineGradG:
		return 2 * numel
	case ExpertMM:
		d := g.Node(n.Inputs[0]).Shape
		return 2 * float64(d[0]) * float64(d[1]) * float64(d[2]) * float64(n.Shape[2])
	case Embed:
		return numel
	case EmbedGrad:
		return float64(g.Node(n.Inputs[1]).Shape.NumElements())
	case Attention, AttentionGrad:
		return n.FlopsPerSample * float64(n.Shape[0])
	case Pool:
		return float64(g.Node(n.Inputs[0]).Shape.NumElements())
	case PoolGrad:
		return numel
	default:
		return numel
	}
}

// BytesPerElement is the accounting element size. The paper trains in fp32.
const BytesPerElement = 4

// Bytes returns the (fp32-accounted) size of the node's output tensor.
func (g *Graph) Bytes(id NodeID) float64 {
	return float64(g.Node(id).Shape.NumElements()) * BytesPerElement
}

// TotalFlops returns the flops of the whole program.
func (g *Graph) TotalFlops() float64 {
	total := 0.0
	for i := range g.Nodes {
		total += g.Flops(NodeID(i))
	}
	return total
}

// ParameterCount returns the total number of trainable scalars.
func (g *Graph) ParameterCount() int {
	total := 0
	for _, p := range g.Params {
		total += g.Node(p).Shape.NumElements()
	}
	return total
}

// ParameterBytes returns total parameter size in bytes (fp32 accounting).
func (g *Graph) ParameterBytes() float64 {
	return float64(g.ParameterCount()) * BytesPerElement
}

// Consumers returns, for every node, the ids of nodes consuming its output,
// in ascending order (a node consuming a tensor twice is listed twice). The
// lists are windows of one backing array; a node without consumers has nil.
func (g *Graph) Consumers() [][]NodeID {
	out := make([][]NodeID, len(g.Nodes))
	count := make([]int, len(g.Nodes)+1)
	for i := range g.Nodes {
		for _, in := range g.Nodes[i].Inputs {
			count[in+1]++
		}
	}
	for i := 1; i < len(count); i++ {
		count[i] += count[i-1]
	}
	backing := make([]NodeID, count[len(g.Nodes)])
	fill := count[:len(g.Nodes)]
	for i := range g.Nodes {
		for _, in := range g.Nodes[i].Inputs {
			backing[fill[in]] = NodeID(i)
			fill[in]++
		}
	}
	for i := range out {
		lo, hi := 0, fill[i]
		if i > 0 {
			lo = fill[i-1]
		}
		if hi > lo {
			out[i] = backing[lo:hi:hi]
		}
	}
	return out
}

// arity is each op kind's input count, for Validate.
var arity = map[OpKind]int{
	Placeholder: 0, Parameter: 0, Ones: 0, Expand: 1,
	MatMul: 2, Transpose: 1, Add: 2, Mul: 2, Scale: 1,
	ReLU: 1, Sigmoid: 1, GeLU: 1, Softmax: 1, Sum: 1,
	ReLUGrad: 2, SigmoidGrad: 2, GeLUGrad: 2, SoftmaxGrad: 2,
	Conv: 2, ConvGradX: 2, ConvGradW: 2,
	Dispatch: 2, ExpertMM: 2, Combine: 2,
	DispatchGrad: 1, ExpertMMGradX: 2, ExpertMMGradW: 2, CombineGrad: 2, CombineGradG: 2,
	Embed: 2, EmbedGrad: 2, Attention: 1, AttentionGrad: 2, Pool: 1, PoolGrad: 2,
}

// Validate checks topological ordering, input arity, and loss designation.
func (g *Graph) Validate() error {
	for i := range g.Nodes {
		n := &g.Nodes[i]
		if n.ID != NodeID(i) {
			return fmt.Errorf("graph: node %d has id %d", i, n.ID)
		}
		if want, ok := arity[n.Kind]; ok && len(n.Inputs) != want {
			return fmt.Errorf("graph: node %d (%v) has %d inputs, want %d", i, n.Kind, len(n.Inputs), want)
		}
		for _, in := range n.Inputs {
			if in < 0 || in >= NodeID(i) {
				return fmt.Errorf("graph: node %d (%v) references input %d out of topological order", i, n.Kind, in)
			}
		}
		// Softmax normalizes along the last dim; a rank-0 output has no dim
		// to normalize and the sharding rules cannot even be stated for it.
		if (n.Kind == Softmax || n.Kind == SoftmaxGrad) && len(n.Shape) == 0 {
			return fmt.Errorf("graph: node %d (%v) has scalar shape; softmax needs rank ≥ 1", i, n.Kind)
		}
	}
	if g.Loss >= 0 && len(g.Node(g.Loss).Shape) != 0 {
		return fmt.Errorf("graph: loss node %d is not scalar", g.Loss)
	}
	if len(g.SegmentOf) != 0 && len(g.SegmentOf) != len(g.Nodes) {
		return fmt.Errorf("graph: SegmentOf has %d entries for %d nodes", len(g.SegmentOf), len(g.Nodes))
	}
	return nil
}

// NumSegments returns the number of model segments (at least 1).
func (g *Graph) NumSegments() int {
	max := 0
	for _, s := range g.SegmentOf {
		if s > max {
			max = s
		}
	}
	if len(g.SegmentOf) == 0 {
		return 1
	}
	return max + 1
}

// WithSegmentOf returns g itself when it already carries segmentOf, and
// otherwise a shallow copy of g that carries it. A plan's segment assignment
// reaches a graph only this way, so planning and plan reading never write
// the caller's graph; the copy shares everything else with g read-only.
func (g *Graph) WithSegmentOf(segmentOf []int) *Graph {
	if slices.Equal(g.SegmentOf, segmentOf) {
		return g
	}
	cp := *g
	cp.SegmentOf = segmentOf
	return &cp
}

// Segment returns the segment of a node (0 when unsegmented).
func (g *Graph) Segment(id NodeID) int {
	if len(g.SegmentOf) == 0 {
		return 0
	}
	return g.SegmentOf[id]
}

// String renders the program one instruction per line, mirroring the
// single-device programs in the paper's figures.
func (g *Graph) String() string {
	var b strings.Builder
	for i := range g.Nodes {
		n := &g.Nodes[i]
		fmt.Fprintf(&b, "e%d = %v(", n.ID, n.Kind)
		for j, in := range n.Inputs {
			if j > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "e%d", in)
		}
		fmt.Fprintf(&b, ") : %v", n.Shape)
		if n.Name != "" {
			fmt.Fprintf(&b, "  # %s", n.Name)
		}
		if NodeID(i) == g.Loss {
			b.WriteString("  # loss")
		}
		b.WriteByte('\n')
	}
	return b.String()
}
