// Package theory derives the background theory T of a single-device program
// (Sec. 4.2): the properties of distributed tensors and the Hoare triples
// that the A* synthesizer searches over.
//
// A property e|I relates a distributed tensor to a reference tensor e of the
// single-device graph: executing instruction I on the distributed instances
// yields e on every device. Three property kinds cover the instruction set:
//
//	e | Identity      — every device holds e in full
//	e | AllGather(d)  — devices hold shards of e along dim d
//	e | AllReduce     — devices hold replicas that sum to e
//
// Triples are generated per graph node from per-op rules encoding the
// mathematical characteristics of the ops (Fig. 9), including the replicated
// rule that enables sufficient factor broadcasting (Sec. 4.4).
//
// Search-time optimization 1 (Sec. 4.5) is realized structurally: leaf
// tensors (Placeholder/Parameter/Ones) have no triples of their own; each
// consumer triple carries the leaf placements it needs, and the synthesizer
// emits the fused leaf-loader instruction together with the consumer.
package theory

import (
	"fmt"

	"hap/internal/dist"
	"hap/internal/graph"
)

// PropKind is the relation between a distributed tensor and its reference.
type PropKind uint8

// Property kinds: the instruction I of e|I.
const (
	Identity PropKind = iota // e | Identity
	Gather                   // e | All-Gather(dim)
	Reduce                   // e | All-Reduce
)

// Property is one semantic fact about a distributed tensor.
type Property struct {
	Ref  graph.NodeID
	Kind PropKind
	Dim  int8 // sharding dimension for Gather
}

func (p Property) String() string {
	switch p.Kind {
	case Identity:
		return fmt.Sprintf("e%d|identity", p.Ref)
	case Gather:
		return fmt.Sprintf("e%d|all-gather(%d)", p.Ref, p.Dim)
	case Reduce:
		return fmt.Sprintf("e%d|all-reduce", p.Ref)
	}
	return fmt.Sprintf("e%d|?", p.Ref)
}

// Slot numbers the forms one tensor's properties take: 0 = Identity,
// 1 = Reduce, 2+d = Gather(d); -1 for a negative shard dimension or an
// unknown kind. The wanted bitset and the donor replay's mask words are
// laid out by it.
func (p Property) Slot() int {
	switch {
	case p.Kind == Identity:
		return 0
	case p.Kind == Reduce:
		return 1
	case p.Kind == Gather && p.Dim >= 0:
		return 2 + int(p.Dim)
	}
	return -1
}

// Leaf placements, as a search's state and Check's replay record them: a
// shard dimension ≥ 0, Replicated, or Unplaced until the leaf is loaded.
const (
	Unplaced   int8 = -2
	Replicated int8 = -1
)

// Placement is the leaf placement a leaf precondition p asks for.
func (p Property) Placement() int8 {
	if p.Kind == Gather {
		return p.Dim
	}
	return Replicated
}

// Id, Shard and Pending are property constructors.
func Id(e graph.NodeID) Property           { return Property{Ref: e, Kind: Identity} }
func Shard(e graph.NodeID, d int) Property { return Property{Ref: e, Kind: Gather, Dim: int8(d)} }
func Pending(e graph.NodeID) Property      { return Property{Ref: e, Kind: Reduce} }

// Triple is a Hoare triple {Pre} Instr {Out} computing one graph node.
// Leaf-input requirements are split out into LeafPre so the synthesizer can
// fuse the leaf-loader instructions (optimization 1 of Sec. 4.5).
//
// No op has more than two inputs (graph.Validate), so a triple holds its
// requirements inline — the non-leaf ones first, then the leaf ones — and
// is 64 bytes with no pointer into a slab of properties.
type Triple struct {
	Node graph.NodeID
	Out  Property // the produced property (postcondition)
	req  [2]Property
	// nPre and nLeaf count the non-leaf and leaf requirements in req.
	nPre, nLeaf uint8
	// FlopsScaled reports whether per-device flops scale with the sharding
	// ratio (false for replicated execution, the SFB-enabling rules).
	FlopsScaled bool
}

// Pre returns the requirements on non-leaf inputs: a view of the triple's
// own array, capped so that an append copies it away.
func (t *Triple) Pre() []Property { return t.req[:t.nPre:t.nPre] }

// LeafPre returns the requirements on leaf inputs (Ref is the leaf), a
// capped view like Pre's.
func (t *Triple) LeafPre() []Property {
	end := t.nPre + t.nLeaf
	return t.req[t.nPre:end:end]
}

// Instr materializes the computation instruction of the triple from the
// triple and g's node: the op and FlopsScaled. For Expand
// (whose sharded variant produces a different local shape) the output shard
// dimension is recorded so the runtime can execute it.
//
// The instruction is built on demand, not stored: a theory holds thousands
// of triples and a plan emits a few hundred instructions.
func (t *Triple) Instr(g *graph.Graph) dist.Instruction {
	n := g.Node(t.Node)
	in := dist.Instruction{Ref: t.Node, Op: n.Kind, ShardDim: -1, FlopsScaled: t.FlopsScaled}
	if n.Kind == graph.Expand && t.Out.Kind == Gather {
		in.ShardDim = int(t.Out.Dim)
	}
	return in
}

// LeafInstr materializes the fused leaf-loader instruction establishing
// prop, e.g. Placeholder-Shard(d) or Parameter().
func LeafInstr(g *graph.Graph, prop Property) dist.Instruction {
	n := g.Node(prop.Ref)
	in := dist.Instruction{Ref: prop.Ref, Op: n.Kind, ShardDim: -1}
	if prop.Kind == Gather {
		in.ShardDim = int(prop.Dim)
	}
	return in
}

// Theory is the background theory of one single-device graph.
type Theory struct {
	Graph *graph.Graph
	// ByNode lists the computation triples producing each node.
	ByNode [][]*Triple
	// Consumers mirrors graph.Consumers.
	Consumers [][]graph.NodeID
	// Required marks nodes that must be computed: ancestors of the loss and
	// of every parameter gradient.
	Required []bool
	// Outputs lists the required output tensors: the loss and all parameter
	// gradients (paired with their parameter for placement matching).
	Outputs []Output
	// wanted is the bitset IsWanted reads: stride bits per tensor, one per
	// Property.Slot. The stride covers the widest Gather dimension any
	// precondition names, so every property has a bit or provably is not
	// wanted.
	wanted []uint64
	stride int
}

// wantedSlot returns p's bit index in the wanted bitset, or false when p
// cannot appear in a precondition the bitset was built from.
func (t *Theory) wantedSlot(p Property) (int, bool) {
	slot := p.Slot()
	if p.Ref < 0 || int(p.Ref) >= len(t.Required) || slot < 0 || slot >= t.stride {
		return 0, false
	}
	return int(p.Ref)*t.stride + slot, true
}

// IsWanted reports whether p appears in some triple's precondition:
// communication producing anything else cannot unblock a computation.
func (t *Theory) IsWanted(p Property) bool {
	i, ok := t.wantedSlot(p)
	return ok && t.wanted[i>>6]&(1<<(i&63)) != 0
}

// indexWanted rebuilds the wanted bitset from ByNode's preconditions.
func (t *Theory) indexWanted() {
	t.wanted = make([]uint64, (len(t.Required)*t.stride+63)/64)
	for _, triples := range t.ByNode {
		for _, tr := range triples {
			for _, p := range tr.Pre() {
				i, _ := t.wantedSlot(p)
				t.wanted[i>>6] |= 1 << (i & 63)
			}
		}
	}
}

// Output is a tensor the distributed program must materialize acceptably.
type Output struct {
	Ref graph.NodeID
	// Param is the parameter this gradient belongs to, or -1 for the loss.
	Param graph.NodeID
}

// New builds the background theory for a single-device graph by matching
// the per-op rules against every node. The rules run twice: a counting pass
// sizes one slab each for the triples and their pointers, and a filling pass
// writes into them, so New allocates per graph rather than per triple. g
// must pass graph.Validate: a Property names a dimension in an int8.
func New(g *graph.Graph) *Theory {
	n := g.NumNodes()
	t := &Theory{
		Graph:     g,
		ByNode:    make([][]*Triple, n),
		Consumers: g.Consumers(),
		Required:  make([]bool, n),
	}

	// Required set: ancestors of loss and of all gradients. Inputs precede
	// their consumers (graph.Validate), so one backward sweep closes it.
	t.Outputs = make([]Output, 0, 1+len(g.Params))
	if g.Loss >= 0 {
		t.Required[g.Loss] = true
		t.Outputs = append(t.Outputs, Output{Ref: g.Loss, Param: -1})
	}
	for _, p := range g.Params {
		if gp, ok := g.Grads[p]; ok {
			t.Required[gp] = true
			t.Outputs = append(t.Outputs, Output{Ref: gp, Param: p})
		}
	}
	for id := n - 1; id >= 0; id-- {
		if t.Required[id] {
			for _, in := range g.Nodes[id].Inputs {
				t.Required[in] = true
			}
		}
	}

	b := &builder{g: g, maxDim: -1}
	b.each(t)
	b.triples = make([]Triple, 0, b.nTriples)
	b.ptrs = make([]*Triple, 0, b.nTriples)
	b.fill = true
	b.each(t)
	t.stride = 3 + b.maxDim
	t.indexWanted()
	return t
}

// Filter returns a copy of the theory restricted to triples accepted by
// keep, with the wanted index recomputed. Baseline systems (pure data
// parallelism, expert parallelism with replicated dense parameters, …) are
// expressed as filtered theories searched by the same synthesizer. Each
// node's kept triples are a run of one slab of triple pointers, sized by
// the theory's triple count, so Filter allocates per theory rather than
// per node.
func (t *Theory) Filter(keep func(*Triple) bool) *Theory {
	nt := &Theory{
		Graph:     t.Graph,
		ByNode:    make([][]*Triple, len(t.ByNode)),
		Consumers: t.Consumers,
		Required:  t.Required,
		Outputs:   t.Outputs,
		stride:    t.stride,
	}
	n := 0
	for _, triples := range t.ByNode {
		n += len(triples)
	}
	slab := make([]*Triple, 0, n)
	for id, triples := range t.ByNode {
		start := len(slab)
		for _, tr := range triples {
			if keep(tr) {
				slab = append(slab, tr)
			}
		}
		if end := len(slab); end > start {
			nt.ByNode[id] = slab[start:end:end]
		}
	}
	nt.indexWanted()
	return nt
}

// IsSFB reports whether tr is a replicated MatMul over two non-leaf
// operands — the pattern sufficient factor broadcasting synthesizes
// through. The SFB ablation (synth.Options.DisableSFB) and the
// data-parallel baselines drop these triples.
func IsSFB(g *graph.Graph, tr *Triple) bool {
	return !tr.FlopsScaled && g.Node(tr.Node).Kind == graph.MatMul && tr.nPre == 2
}

// ExpertParallel reports whether tr keeps to expert parallelism: an expert
// matmul, forward or either gradient, passes only when its output is
// sharded on the expert dimension (dim 0); every other triple passes.
// hapopt's expert-parallel portfolio arm and the DeepSpeed baseline search
// theories filtered by it.
func ExpertParallel(g *graph.Graph, tr *Triple) bool {
	switch g.Node(tr.Node).Kind {
	case graph.ExpertMM, graph.ExpertMMGradX, graph.ExpertMMGradW:
		return tr.Out.Kind == Gather && tr.Out.Dim == 0
	}
	return true
}

// pre is a rule's input requirements: one property per input, held by
// value so matching a rule allocates nothing. graph.Validate caps every
// op's arity at 2.
type pre struct {
	p [2]Property
	n int
}

func one(p Property) pre    { return pre{p: [2]Property{p}, n: 1} }
func two(p, q Property) pre { return pre{p: [2]Property{p, q}, n: 2} }

// same is the elementwise rules' requirement: every input under one
// property form.
func same(inputs []graph.NodeID, kind PropKind, d int) pre {
	if len(inputs) > len(pre{}.p) {
		panic(fmt.Sprintf("theory: elementwise op with %d inputs", len(inputs)))
	}
	ps := pre{n: len(inputs)}
	for i, e := range inputs {
		ps.p[i] = Property{Ref: e, Kind: kind, Dim: int8(d)}
	}
	return ps
}

// builder matches the per-op rules against a graph. The counting pass only
// tallies what the filling pass will write, so the filling pass appends
// into slabs of exactly that size and never grows one.
type builder struct {
	g    *graph.Graph
	fill bool

	// Tallies of the counting pass. maxDim is the widest Gather dimension
	// any precondition names (-1 for none).
	nTriples, maxDim int

	// Slabs of the filling pass.
	triples []Triple
	ptrs    []*Triple

	// node is the node whose rules are being matched.
	node graph.NodeID
}

// each matches the rules of every required computation node, in id order;
// the filling pass hands each node its run of the triple slab.
func (b *builder) each(t *Theory) {
	for i := range b.g.Nodes {
		id := graph.NodeID(i)
		if !t.Required[id] || b.g.Node(id).Kind.IsLeaf() {
			continue
		}
		b.node = id
		start := len(b.ptrs)
		b.rules(id)
		if end := len(b.ptrs); b.fill && end > start {
			t.ByNode[id] = b.ptrs[start:end:end]
		}
	}
}

// add records a triple for the current node after verifying every leaf
// requirement is satisfiable (a Placeholder can only be sharded on its
// batch dimension).
func (b *builder) add(in pre, outProp Property, scaled bool) {
	var leaf [2]bool
	for i, p := range in.p[:in.n] {
		n := b.g.Node(p.Ref)
		if p.Kind == Gather && (int(p.Dim) >= len(n.Shape) || n.Shape[p.Dim] < 1) {
			return // unshardable dimension
		}
		if n.Kind.IsLeaf() {
			if p.Kind == Reduce {
				return // leaves cannot be pending-reduce
			}
			if p.Kind == Gather && n.Kind == graph.Placeholder && int(p.Dim) != n.BatchDim {
				return // input data arrives batch-organized only
			}
			leaf[i] = true
		}
	}
	if !b.fill {
		b.nTriples++
		for i, p := range in.p[:in.n] {
			if !leaf[i] && p.Kind == Gather {
				b.maxDim = max(b.maxDim, int(p.Dim))
			}
		}
		return
	}

	b.triples = append(b.triples, Triple{Node: b.node, Out: outProp, FlopsScaled: scaled})
	tr := &b.triples[len(b.triples)-1]
	for i, p := range in.p[:in.n] {
		if !leaf[i] {
			tr.req[tr.nPre] = p
			tr.nPre++
		}
	}
	for i, p := range in.p[:in.n] {
		if leaf[i] {
			tr.req[tr.nPre+tr.nLeaf] = p
			tr.nLeaf++
		}
	}
	b.ptrs = append(b.ptrs, tr)
}

// rules encodes the per-op rules. in(i) is the i-th input node.
func (b *builder) rules(id graph.NodeID) {
	g := b.g
	n := g.Node(id)
	in := func(i int) graph.NodeID { return n.Inputs[i] }
	add := b.add

	// elementwise emits the shard-along-any-dim-below-rank rules plus the
	// replicated rule for an op whose output dims map 1:1 to all inputs'
	// dims.
	elementwise := func(rank int, withReduce bool) {
		for d := 0; d < rank; d++ {
			add(same(n.Inputs, Gather, d), Shard(id, d), true)
		}
		add(same(n.Inputs, Identity, 0), Id(id), false)
		if withReduce {
			add(same(n.Inputs, Reduce, 0), Pending(id), false)
		}
	}

	switch n.Kind {
	case graph.Expand:
		// Scalar seed broadcast: replicated or directly sharded.
		add(one(Id(in(0))), Id(id), false)
		for d := range n.Shape {
			add(one(Id(in(0))), Shard(id, d), true)
		}
	case graph.MatMul:
		a, b := in(0), in(1)
		add(two(Shard(a, 0), Id(b)), Shard(id, 0), true)      // data parallel
		add(two(Id(a), Shard(b, 1)), Shard(id, 1), true)      // column parallel
		add(two(Shard(a, 1), Shard(b, 0)), Pending(id), true) // reduction parallel
		add(two(Id(a), Id(b)), Id(id), false)                 // replicated (SFB)
	case graph.Transpose:
		add(one(Shard(in(0), 0)), Shard(id, 1), true)
		add(one(Shard(in(0), 1)), Shard(id, 0), true)
		add(one(Id(in(0))), Id(id), false)
		add(one(Pending(in(0))), Pending(id), false)
	case graph.Add:
		elementwise(len(n.Shape), true) // addition commutes with pending reduce
	case graph.Mul, graph.ReLUGrad, graph.SigmoidGrad, graph.GeLUGrad,
		graph.ReLU, graph.Sigmoid, graph.GeLU:
		elementwise(len(n.Shape), false)
	case graph.Softmax, graph.SoftmaxGrad:
		// Normalization along the last dim forbids sharding it.
		elementwise(len(n.Shape)-1, false)
	case graph.Scale:
		for d := range g.Node(in(0)).Shape {
			add(one(Shard(in(0), d)), Shard(id, d), true)
		}
		add(one(Id(in(0))), Id(id), false)
		add(one(Pending(in(0))), Pending(id), false)
	case graph.Sum:
		for d := range g.Node(in(0)).Shape {
			add(one(Shard(in(0), d)), Pending(id), true)
		}
		add(one(Pending(in(0))), Pending(id), false)
		add(one(Id(in(0))), Id(id), false)
	case graph.Embed:
		ids, table := in(0), in(1)
		add(two(Shard(ids, 0), Id(table)), Shard(id, 0), true)
		add(two(Id(ids), Shard(table, 1)), Shard(id, 1), true)
		add(two(Id(ids), Id(table)), Id(id), false)
	case graph.EmbedGrad:
		ids, gy := in(0), in(1)
		add(two(Shard(ids, 0), Shard(gy, 0)), Pending(id), true)
		add(two(Id(ids), Shard(gy, 1)), Shard(id, 1), true)
		add(two(Id(ids), Id(gy)), Id(id), false)
	case graph.Attention:
		add(one(Shard(in(0), 0)), Shard(id, 0), true) // batch/sequence
		add(one(Shard(in(0), 1)), Shard(id, 1), true) // head parallel
		add(one(Id(in(0))), Id(id), false)
	case graph.AttentionGrad:
		qkv, gy := in(0), in(1)
		add(two(Shard(qkv, 0), Shard(gy, 0)), Shard(id, 0), true)
		add(two(Shard(qkv, 1), Shard(gy, 1)), Shard(id, 1), true)
		add(two(Id(qkv), Id(gy)), Id(id), false)
	case graph.Conv:
		x, w := in(0), in(1)
		add(two(Shard(x, 0), Id(w)), Shard(id, 0), true)
		add(two(Id(x), Id(w)), Id(id), false)
	case graph.ConvGradX:
		w, gy := in(0), in(1)
		add(two(Id(w), Shard(gy, 0)), Shard(id, 0), true)
		add(two(Id(w), Id(gy)), Id(id), false)
	case graph.ConvGradW:
		x, gy := in(0), in(1)
		add(two(Shard(x, 0), Shard(gy, 0)), Pending(id), true)
		add(two(Id(x), Id(gy)), Id(id), false)
	case graph.Pool:
		add(one(Shard(in(0), 0)), Shard(id, 0), true)
		add(one(Id(in(0))), Id(id), false)
	case graph.PoolGrad:
		x, gy := in(0), in(1)
		add(two(Shard(x, 0), Shard(gy, 0)), Shard(id, 0), true)
		add(two(Id(x), Id(gy)), Id(id), false)
	case graph.Dispatch:
		x, gates := in(0), in(1)
		// Token-sharded dispatch produces a capacity (dim 1) shard.
		add(two(Shard(x, 0), Shard(gates, 0)), Shard(id, 1), true)
		add(two(Id(x), Id(gates)), Id(id), false)
	case graph.ExpertMM:
		d, w := in(0), in(1)
		add(two(Shard(d, 0), Shard(w, 0)), Shard(id, 0), true) // expert parallel
		add(two(Shard(d, 1), Id(w)), Shard(id, 1), true)       // capacity parallel
		add(two(Id(d), Id(w)), Id(id), false)
	case graph.Combine:
		e, gates := in(0), in(1)
		add(two(Shard(e, 1), Shard(gates, 0)), Shard(id, 0), true)
		add(two(Id(e), Id(gates)), Id(id), false)
	case graph.DispatchGrad:
		add(one(Shard(in(0), 1)), Shard(id, 0), true)
		add(one(Id(in(0))), Id(id), false)
	case graph.ExpertMMGradX:
		w, gy := in(0), in(1)
		add(two(Shard(w, 0), Shard(gy, 0)), Shard(id, 0), true)
		add(two(Id(w), Shard(gy, 1)), Shard(id, 1), true)
		add(two(Id(w), Id(gy)), Id(id), false)
	case graph.ExpertMMGradW:
		d, gy := in(0), in(1)
		add(two(Shard(d, 0), Shard(gy, 0)), Shard(id, 0), true)
		add(two(Shard(d, 1), Shard(gy, 1)), Pending(id), true)
		add(two(Id(d), Id(gy)), Id(id), false)
	case graph.CombineGrad:
		gy, gates := in(0), in(1)
		add(two(Shard(gy, 0), Shard(gates, 0)), Shard(id, 1), true)
		add(two(Id(gy), Id(gates)), Id(id), false)
	case graph.CombineGradG:
		gy, e := in(0), in(1)
		add(two(Shard(gy, 0), Shard(e, 1)), Shard(id, 0), true)
		add(two(Id(gy), Id(e)), Id(id), false)
	default:
		panic(fmt.Sprintf("theory: no rules for op %v (node %d)", n.Kind, id))
	}
}

// Acceptable reports whether prop is a valid final form for the output:
// the loss must be All-Reduce-pending or replicated; a gradient must match
// its parameter's placement (the shard dim, or full when the parameter is
// replicated — a full gradient can always be applied to any shard).
func (o Output) Acceptable(prop Property, paramShardDim int) bool {
	if prop.Ref != o.Ref {
		return false
	}
	if o.Param < 0 { // the loss
		return prop.Kind == Reduce || prop.Kind == Identity
	}
	if prop.Kind == Identity {
		return true
	}
	return paramShardDim >= 0 && prop.Kind == Gather && int(prop.Dim) == paramShardDim
}

// FinalDim returns the shard dimension an acceptable final form of the
// output carries once its parameter is placed at placed: -1 (a full form)
// for the loss or a replicated parameter, and false while the parameter is
// unplaced, when no form is known to be acceptable.
func (o Output) FinalDim(placed int8) (int, bool) {
	switch {
	case o.Param < 0 || placed == Replicated:
		return -1, true
	case placed == Unplaced:
		return 0, false
	}
	return int(placed), true
}

// Settles reports whether the output, holding props, ends acceptable once
// its parameter is placed at placed (the loss ignores it): the one rule a
// search's final state and Check's replay both apply.
func (o Output) Settles(placed int8, props []Property) bool {
	dim, ok := o.FinalDim(placed)
	if !ok {
		return false
	}
	for _, p := range props {
		if o.Acceptable(p, dim) {
			return true
		}
	}
	return false
}
