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

// Id, Shard and Pending are property constructors.
func Id(e graph.NodeID) Property           { return Property{Ref: e, Kind: Identity} }
func Shard(e graph.NodeID, d int) Property { return Property{Ref: e, Kind: Gather, Dim: int8(d)} }
func Pending(e graph.NodeID) Property      { return Property{Ref: e, Kind: Reduce} }

// Triple is a Hoare triple {Pre} Instr {Out} computing one graph node.
// Leaf-input requirements are split out into LeafPre so the synthesizer can
// fuse the leaf-loader instructions (optimization 1 of Sec. 4.5).
type Triple struct {
	Node    graph.NodeID
	Pre     []Property // requirements on non-leaf inputs
	LeafPre []Property // requirements on leaf inputs (Ref is the leaf)
	Out     Property   // the produced property (postcondition)
	// FlopsScaled reports whether per-device flops scale with the sharding
	// ratio (false for replicated execution, the SFB-enabling rules).
	FlopsScaled bool
	// instr is the materialized computation instruction, built once at rule
	// construction and shared (including its Inputs backing array) by every
	// search state; see Instr.
	instr dist.Instruction
}

// Instr materializes the computation instruction of the triple. For Expand
// (whose sharded variant produces a different local shape) the output shard
// dimension is recorded so the runtime can execute it.
//
// The instruction is built once per triple and returned by value: the Inputs
// backing array is shared across every state the synthesizer materializes
// from this triple (millions, on model-scale searches). Instruction inputs
// mirror the immutable graph and are never mutated downstream; consumers
// that rewrite programs in place work on dist.Program.Clone copies.
func (t *Triple) Instr(g *graph.Graph) dist.Instruction {
	return t.instr
}

func buildInstr(g *graph.Graph, t *Triple) dist.Instruction {
	n := g.Node(t.Node)
	in := dist.Instruction{
		Ref: t.Node, Op: n.Kind, Inputs: append([]graph.NodeID(nil), n.Inputs...),
		ShardDim: -1, FlopsScaled: t.FlopsScaled,
	}
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
	// Wanted marks properties that appear in some triple's precondition:
	// communication producing anything else cannot unblock a computation.
	Wanted map[Property]bool
	// wantedMask is the dense per-ref form of Wanted the synthesizer's hot
	// path queries through IsWanted: bit 0 = Identity, bit 1 = Reduce,
	// bit 2+d = Gather(d).
	wantedMask []uint32
}

// wantedBit returns the wantedMask bit of p, or 0 for an unencodable
// (absurdly high) shard dimension.
func wantedBit(p Property) uint32 {
	switch p.Kind {
	case Identity:
		return 1
	case Reduce:
		return 2
	default:
		if d := uint(p.Dim); d < 30 {
			return 1 << (2 + d)
		}
		return 0
	}
}

// IsWanted reports whether p appears in some triple's precondition, via a
// dense table lookup (the map form is kept for enumeration and debugging).
func (t *Theory) IsWanted(p Property) bool {
	if int(p.Ref) >= len(t.wantedMask) {
		return t.Wanted[p]
	}
	b := wantedBit(p)
	if b == 0 {
		return t.Wanted[p]
	}
	return t.wantedMask[p.Ref]&b != 0
}

// Output is a tensor the distributed program must materialize acceptably.
type Output struct {
	Ref graph.NodeID
	// Param is the parameter this gradient belongs to, or -1 for the loss.
	Param graph.NodeID
}

// New builds the background theory for a single-device graph by matching
// the per-op rules against every node.
func New(g *graph.Graph) *Theory {
	t := &Theory{
		Graph:     g,
		ByNode:    make([][]*Triple, g.NumNodes()),
		Consumers: g.Consumers(),
		Required:  make([]bool, g.NumNodes()),
	}

	// Required set: ancestors of loss and of all gradients.
	var mark func(graph.NodeID)
	mark = func(id graph.NodeID) {
		if t.Required[id] {
			return
		}
		t.Required[id] = true
		for _, in := range g.Node(id).Inputs {
			mark(in)
		}
	}
	if g.Loss >= 0 {
		mark(g.Loss)
		t.Outputs = append(t.Outputs, Output{Ref: g.Loss, Param: -1})
	}
	for _, p := range g.Params {
		if gp, ok := g.Grads[p]; ok {
			mark(gp)
			t.Outputs = append(t.Outputs, Output{Ref: gp, Param: p})
		}
	}

	t.Wanted = map[Property]bool{}
	t.wantedMask = make([]uint32, g.NumNodes())
	for i := range g.Nodes {
		id := graph.NodeID(i)
		if !t.Required[id] || g.Node(id).Kind.IsLeaf() {
			continue
		}
		t.ByNode[id] = buildTriples(g, id)
		for _, tr := range t.ByNode[id] {
			for _, p := range tr.Pre {
				t.Wanted[p] = true
				t.wantedMask[p.Ref] |= wantedBit(p)
			}
		}
	}
	return t
}

// Filter returns a copy of the theory restricted to triples accepted by
// keep, with the Wanted index recomputed. Baseline systems (pure data
// parallelism, expert parallelism with replicated dense parameters, …) are
// expressed as filtered theories searched by the same synthesizer.
func (t *Theory) Filter(keep func(*Triple) bool) *Theory {
	nt := &Theory{
		Graph:      t.Graph,
		ByNode:     make([][]*Triple, len(t.ByNode)),
		Consumers:  t.Consumers,
		Required:   t.Required,
		Outputs:    t.Outputs,
		Wanted:     map[Property]bool{},
		wantedMask: make([]uint32, len(t.wantedMask)),
	}
	for id, triples := range t.ByNode {
		for _, tr := range triples {
			if !keep(tr) {
				continue
			}
			nt.ByNode[id] = append(nt.ByNode[id], tr)
			for _, p := range tr.Pre {
				nt.Wanted[p] = true
				nt.wantedMask[p.Ref] |= wantedBit(p)
			}
		}
	}
	return nt
}

// addRule appends a triple after verifying every leaf requirement is
// satisfiable (a Placeholder can only be sharded on its batch dimension).
func addRule(g *graph.Graph, out *[]*Triple, node graph.NodeID, inProps []Property, outProp Property, scaled bool) {
	tr := &Triple{Node: node, Out: outProp, FlopsScaled: scaled}
	for _, p := range inProps {
		n := g.Node(p.Ref)
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
			tr.LeafPre = append(tr.LeafPre, p)
		} else {
			tr.Pre = append(tr.Pre, p)
		}
	}
	tr.instr = buildInstr(g, tr)
	*out = append(*out, tr)
}

// buildTriples encodes the per-op rules. in(i) is the i-th input node.
func buildTriples(g *graph.Graph, id graph.NodeID) []*Triple {
	n := g.Node(id)
	in := func(i int) graph.NodeID { return n.Inputs[i] }
	var out []*Triple
	add := func(inProps []Property, outProp Property, scaled bool) {
		addRule(g, &out, id, inProps, outProp, scaled)
	}

	// elementwise emits the shard-along-any-dim rules plus the replicated
	// rule for an op whose output dims map 1:1 to all inputs' dims.
	elementwise := func(dims []int, withReduce bool) {
		for _, d := range dims {
			props := make([]Property, len(n.Inputs))
			for i := range props {
				props[i] = Shard(in(i), d)
			}
			add(props, Shard(id, d), true)
		}
		idProps := make([]Property, len(n.Inputs))
		for i := range idProps {
			idProps[i] = Id(in(i))
		}
		add(idProps, Id(id), false)
		if withReduce {
			rProps := make([]Property, len(n.Inputs))
			for i := range rProps {
				rProps[i] = Pending(in(i))
			}
			add(rProps, Pending(id), false)
		}
	}
	allDims := func() []int {
		ds := make([]int, len(n.Shape))
		for i := range ds {
			ds[i] = i
		}
		return ds
	}

	switch n.Kind {
	case graph.Expand:
		// Scalar seed broadcast: replicated or directly sharded.
		add([]Property{Id(in(0))}, Id(id), false)
		for d := range n.Shape {
			add([]Property{Id(in(0))}, Shard(id, d), true)
		}
	case graph.MatMul:
		a, b := in(0), in(1)
		add([]Property{Shard(a, 0), Id(b)}, Shard(id, 0), true)      // data parallel
		add([]Property{Id(a), Shard(b, 1)}, Shard(id, 1), true)      // column parallel
		add([]Property{Shard(a, 1), Shard(b, 0)}, Pending(id), true) // reduction parallel
		add([]Property{Id(a), Id(b)}, Id(id), false)                 // replicated (SFB)
	case graph.Transpose:
		add([]Property{Shard(in(0), 0)}, Shard(id, 1), true)
		add([]Property{Shard(in(0), 1)}, Shard(id, 0), true)
		add([]Property{Id(in(0))}, Id(id), false)
		add([]Property{Pending(in(0))}, Pending(id), false)
	case graph.Add:
		elementwise(allDims(), true) // addition commutes with pending reduce
	case graph.Mul, graph.ReLUGrad, graph.SigmoidGrad, graph.GeLUGrad,
		graph.ReLU, graph.Sigmoid, graph.GeLU:
		elementwise(allDims(), false)
	case graph.Softmax, graph.SoftmaxGrad:
		// Normalization along the last dim forbids sharding it.
		elementwise(allDims()[:len(n.Shape)-1], false)
	case graph.Scale:
		for d := range g.Node(in(0)).Shape {
			add([]Property{Shard(in(0), d)}, Shard(id, d), true)
		}
		add([]Property{Id(in(0))}, Id(id), false)
		add([]Property{Pending(in(0))}, Pending(id), false)
	case graph.Sum:
		for d := range g.Node(in(0)).Shape {
			add([]Property{Shard(in(0), d)}, Pending(id), true)
		}
		add([]Property{Pending(in(0))}, Pending(id), false)
		add([]Property{Id(in(0))}, Id(id), false)
	case graph.Embed:
		ids, table := in(0), in(1)
		add([]Property{Shard(ids, 0), Id(table)}, Shard(id, 0), true)
		add([]Property{Id(ids), Shard(table, 1)}, Shard(id, 1), true)
		add([]Property{Id(ids), Id(table)}, Id(id), false)
	case graph.EmbedGrad:
		ids, gy := in(0), in(1)
		add([]Property{Shard(ids, 0), Shard(gy, 0)}, Pending(id), true)
		add([]Property{Id(ids), Shard(gy, 1)}, Shard(id, 1), true)
		add([]Property{Id(ids), Id(gy)}, Id(id), false)
	case graph.Attention:
		add([]Property{Shard(in(0), 0)}, Shard(id, 0), true) // batch/sequence
		add([]Property{Shard(in(0), 1)}, Shard(id, 1), true) // head parallel
		add([]Property{Id(in(0))}, Id(id), false)
	case graph.AttentionGrad:
		qkv, gy := in(0), in(1)
		add([]Property{Shard(qkv, 0), Shard(gy, 0)}, Shard(id, 0), true)
		add([]Property{Shard(qkv, 1), Shard(gy, 1)}, Shard(id, 1), true)
		add([]Property{Id(qkv), Id(gy)}, Id(id), false)
	case graph.Conv:
		x, w := in(0), in(1)
		add([]Property{Shard(x, 0), Id(w)}, Shard(id, 0), true)
		add([]Property{Id(x), Id(w)}, Id(id), false)
	case graph.ConvGradX:
		w, gy := in(0), in(1)
		add([]Property{Id(w), Shard(gy, 0)}, Shard(id, 0), true)
		add([]Property{Id(w), Id(gy)}, Id(id), false)
	case graph.ConvGradW:
		x, gy := in(0), in(1)
		add([]Property{Shard(x, 0), Shard(gy, 0)}, Pending(id), true)
		add([]Property{Id(x), Id(gy)}, Id(id), false)
	case graph.Pool:
		add([]Property{Shard(in(0), 0)}, Shard(id, 0), true)
		add([]Property{Id(in(0))}, Id(id), false)
	case graph.PoolGrad:
		x, gy := in(0), in(1)
		add([]Property{Shard(x, 0), Shard(gy, 0)}, Shard(id, 0), true)
		add([]Property{Id(x), Id(gy)}, Id(id), false)
	case graph.Dispatch:
		x, gates := in(0), in(1)
		// Token-sharded dispatch produces a capacity (dim 1) shard.
		add([]Property{Shard(x, 0), Shard(gates, 0)}, Shard(id, 1), true)
		add([]Property{Id(x), Id(gates)}, Id(id), false)
	case graph.ExpertMM:
		d, w := in(0), in(1)
		add([]Property{Shard(d, 0), Shard(w, 0)}, Shard(id, 0), true) // expert parallel
		add([]Property{Shard(d, 1), Id(w)}, Shard(id, 1), true)       // capacity parallel
		add([]Property{Id(d), Id(w)}, Id(id), false)
	case graph.Combine:
		e, gates := in(0), in(1)
		add([]Property{Shard(e, 1), Shard(gates, 0)}, Shard(id, 0), true)
		add([]Property{Id(e), Id(gates)}, Id(id), false)
	case graph.DispatchGrad:
		add([]Property{Shard(in(0), 1)}, Shard(id, 0), true)
		add([]Property{Id(in(0))}, Id(id), false)
	case graph.ExpertMMGradX:
		w, gy := in(0), in(1)
		add([]Property{Shard(w, 0), Shard(gy, 0)}, Shard(id, 0), true)
		add([]Property{Id(w), Shard(gy, 1)}, Shard(id, 1), true)
		add([]Property{Id(w), Id(gy)}, Id(id), false)
	case graph.ExpertMMGradW:
		d, gy := in(0), in(1)
		add([]Property{Shard(d, 0), Shard(gy, 0)}, Shard(id, 0), true)
		add([]Property{Shard(d, 1), Shard(gy, 1)}, Pending(id), true)
		add([]Property{Id(d), Id(gy)}, Id(id), false)
	case graph.CombineGrad:
		gy, gates := in(0), in(1)
		add([]Property{Shard(gy, 0), Shard(gates, 0)}, Shard(id, 1), true)
		add([]Property{Id(gy), Id(gates)}, Id(id), false)
	case graph.CombineGradG:
		gy, e := in(0), in(1)
		add([]Property{Shard(gy, 0), Shard(e, 1)}, Shard(id, 0), true)
		add([]Property{Id(gy), Id(e)}, Id(id), false)
	default:
		panic(fmt.Sprintf("theory: no rules for op %v (node %d)", n.Kind, id))
	}
	return out
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
