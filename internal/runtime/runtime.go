// Package runtime executes programs on real numbers. It runs both the
// single-device graph (the reference) and a synthesized distributed program
// (on m in-memory "devices" with data-plane collectives) and verifies the
// semantic-equivalence claim of Sec. 4.2: every distributed tensor must
// relate to its reference tensor through one of the three properties
// (Identity, All-Gather(d), All-Reduce), and every required output must be
// materialized acceptably.
//
// This is the correctness backstop the paper gets from construction; here it
// doubles as a differential test of the synthesizer, the theory rules, and
// the data-plane collectives.
package runtime

import (
	"fmt"
	"math/rand"

	"hap/internal/collective"
	"hap/internal/dist"
	"hap/internal/graph"
	"hap/internal/tensor"
)

// verification tolerances: float64 math with different summation orders.
const (
	rtol = 1e-7
	atol = 1e-7
)

// ExecSingle runs the single-device graph with the given leaf values and
// returns every node's tensor. Leaves not present in leaves get zeros
// (Placeholder) or are synthesized (Ones).
func ExecSingle(g *graph.Graph, leaves map[graph.NodeID]*tensor.Tensor) (map[graph.NodeID]*tensor.Tensor, error) {
	vals := make(map[graph.NodeID]*tensor.Tensor, g.NumNodes())
	for i := range g.Nodes {
		id := graph.NodeID(i)
		n := g.Node(id)
		var v *tensor.Tensor
		var err error
		switch n.Kind {
		case graph.Placeholder, graph.Parameter:
			lv, ok := leaves[id]
			if !ok {
				return nil, fmt.Errorf("runtime: no value for leaf e%d (%s)", id, n.Name)
			}
			v = lv
		case graph.Ones:
			v = tensor.Ones(n.Shape...)
		default:
			v, err = execOp(g, n, func(i int) *tensor.Tensor { return vals[n.Inputs[i]] })
			if err != nil {
				return nil, err
			}
		}
		vals[id] = v
	}
	return vals, nil
}

// execOp evaluates one computation node given its input tensors.
func execOp(g *graph.Graph, n *graph.Node, in func(int) *tensor.Tensor) (*tensor.Tensor, error) {
	switch n.Kind {
	case graph.MatMul:
		return tensor.MatMul(in(0), in(1)), nil
	case graph.Transpose:
		return tensor.Transpose(in(0)), nil
	case graph.Add:
		return tensor.Add(in(0), in(1)), nil
	case graph.Mul:
		return tensor.Mul(in(0), in(1)), nil
	case graph.Scale:
		return tensor.Scale(in(0), n.ScaleFactor), nil
	case graph.ReLU:
		return tensor.ReLU(in(0)), nil
	case graph.Sigmoid:
		return tensor.Sigmoid(in(0)), nil
	case graph.GeLU:
		return tensor.GeLU(in(0)), nil
	case graph.Softmax:
		return tensor.Softmax(in(0)), nil
	case graph.Sum:
		return tensor.Sum(in(0)), nil
	case graph.ReLUGrad:
		return tensor.ReLUGrad(in(0), in(1)), nil
	case graph.SigmoidGrad:
		return tensor.SigmoidGrad(in(0), in(1)), nil
	case graph.GeLUGrad:
		return tensor.GeLUGrad(in(0), in(1)), nil
	case graph.SoftmaxGrad:
		return softmaxGrad(in(0), in(1)), nil
	case graph.Expand:
		s := in(0).At()
		out := tensor.New(n.Shape...)
		for i := range out.Data() {
			out.Data()[i] = s
		}
		return out, nil
	case graph.Embed:
		return embed(in(0), in(1)), nil
	case graph.EmbedGrad:
		// Inputs (ids, gy); output shape is the table's.
		return embedGrad(in(0), in(1), n.Shape), nil
	default:
		return nil, fmt.Errorf("runtime: op %v is cost-only (no numeric kernel)", n.Kind)
	}
}

// tokenIndex maps a float id value to a row of a V-row table. Placeholders
// carry random floats in tests; the mapping just needs to be deterministic
// and local to each element.
func tokenIndex(v float64, vocab int) int {
	i := int(v*1e6) % vocab
	if i < 0 {
		i += vocab
	}
	return i
}

// embed gathers table rows: ids (T,) × table (V,H) → (T,H).
func embed(ids, table *tensor.Tensor) *tensor.Tensor {
	t := ids.Dim(0)
	v, h := table.Dim(0), table.Dim(1)
	out := tensor.New(t, h)
	for i := 0; i < t; i++ {
		row := tokenIndex(ids.Data()[i], v)
		copy(out.Data()[i*h:(i+1)*h], table.Data()[row*h:(row+1)*h])
	}
	return out
}

// embedGrad scatter-adds gy rows into a zero table: (ids (T,), gy (T,H)) →
// (V,H). The vocabulary size comes from the reference shape (never sharded
// by our rules); the width follows gy, which may be a hidden-dim shard.
func embedGrad(ids, gy *tensor.Tensor, shape tensor.Shape) *tensor.Tensor {
	v, h := shape[0], gy.Dim(1)
	out := tensor.New(v, h)
	for i := 0; i < ids.Dim(0); i++ {
		row := tokenIndex(ids.Data()[i], v)
		for j := 0; j < h; j++ {
			out.Data()[row*h+j] += gy.Data()[i*h+j]
		}
	}
	return out
}

// softmaxGrad computes dL/dx for y = softmax(x): y ∘ (g − rowsum(g∘y)).
func softmaxGrad(y, gy *tensor.Tensor) *tensor.Tensor {
	last := y.Dim(y.Rank() - 1)
	rows := y.Shape().NumElements() / last
	out := tensor.New(y.Shape()...)
	yd, gd, od := y.Data(), gy.Data(), out.Data()
	for r := 0; r < rows; r++ {
		dot := 0.0
		for c := 0; c < last; c++ {
			dot += yd[r*last+c] * gd[r*last+c]
		}
		for c := 0; c < last; c++ {
			i := r*last + c
			od[i] = yd[i] * (gd[i] - dot)
		}
	}
	return out
}

// ExecDistributed runs the distributed program on m in-memory devices using
// the data-plane collectives, returning each device's tensor per reference
// node. Leaf values are the full (reference) tensors; sharded loaders slice
// them locally exactly as Sec. 6 describes.
func ExecDistributed(p *dist.Program, m int, b [][]float64, leaves map[graph.NodeID]*tensor.Tensor) (map[graph.NodeID][]*tensor.Tensor, error) {
	g := p.Graph
	vals := make(map[graph.NodeID][]*tensor.Tensor, g.NumNodes())
	sizes := func(ref graph.NodeID, d int) []int {
		return collective.ShardSizes(g.Node(ref).Shape[d], b[g.Segment(ref)])
	}
	for i := range p.Instrs {
		in := &p.Instrs[i]
		if in.IsComm {
			cur, ok := vals[in.Ref]
			if !ok {
				return nil, fmt.Errorf("runtime: collective on unproduced tensor e%d", in.Ref)
			}
			shard := in.Dim // the dim the collective reads its tensor sharded on
			if in.Coll == collective.AllReduce || in.Coll == collective.ReduceScatter {
				shard = -1
			}
			if err := checkLayout(cur, g.Node(in.Ref).Shape, shard); err != nil {
				return nil, fmt.Errorf("runtime: instruction %d (%s): %w", i, in.Text(g), err)
			}
			var next []*tensor.Tensor
			switch in.Coll {
			case collective.AllReduce:
				full := collective.AllReduceT(cur)
				next = replicate(full, m)
			case collective.PaddedAllGather, collective.GroupedBroadcast:
				full := collective.AllGatherT(cur, in.Dim)
				next = replicate(full, m)
			case collective.ReduceScatter:
				next = collective.ReduceScatterT(cur, in.Dim, sizes(in.Ref, in.Dim))
			case collective.AllToAll:
				next = collective.AllToAllT(cur, in.Dim, in.Dim2, sizes(in.Ref, in.Dim2))
			default:
				return nil, fmt.Errorf("runtime: unknown collective %v", in.Coll)
			}
			vals[in.Ref] = next
			continue
		}
		n := g.Node(in.Ref)
		if err := checkOperands(n, vals, m); err != nil {
			return nil, fmt.Errorf("runtime: instruction %d (%s): %w", i, in.Text(g), err)
		}
		out := make([]*tensor.Tensor, m)
		switch n.Kind {
		case graph.Placeholder, graph.Parameter:
			full, ok := leaves[in.Ref]
			if !ok {
				return nil, fmt.Errorf("runtime: no value for leaf e%d", in.Ref)
			}
			if in.ShardDim < 0 {
				out = replicate(full, m)
			} else {
				parts := tensor.SplitSizes(full, in.ShardDim, sizes(in.Ref, in.ShardDim))
				copy(out, parts)
			}
		case graph.Ones:
			if in.ShardDim >= 0 {
				return nil, fmt.Errorf("runtime: sharded ones unsupported")
			}
			out = replicate(tensor.Ones(n.Shape...), m)
		case graph.Expand:
			scalars := vals[n.Inputs[0]]
			if in.ShardDim < 0 {
				for j := 0; j < m; j++ {
					v := tensor.New(n.Shape...)
					fill(v, scalars[j].At())
					out[j] = v
				}
			} else {
				sz := sizes(in.Ref, in.ShardDim)
				for j := 0; j < m; j++ {
					shape := n.Shape.Clone()
					shape[in.ShardDim] = sz[j]
					v := tensor.New(shape...)
					fill(v, scalars[j].At())
					out[j] = v
				}
			}
		default:
			for j := 0; j < m; j++ {
				jj := j
				v, err := execOp(g, n, func(i int) *tensor.Tensor {
					return vals[n.Inputs[i]][jj]
				})
				if err != nil {
					return nil, err
				}
				out[j] = v
			}
		}
		vals[in.Ref] = out
	}
	return vals, nil
}

// checkOperands refuses computation n when an earlier instruction produced
// none of one of its inputs, or when a device's local operands have shapes
// the op cannot take (graph.InferShape), so a kernel never sees them.
func checkOperands(n *graph.Node, vals map[graph.NodeID][]*tensor.Tensor, m int) error {
	var buf [4]int
	for j := 0; j < m; j++ {
		var in [2]tensor.Shape
		for k, u := range n.Inputs {
			if _, ok := vals[u]; !ok {
				return fmt.Errorf("reads e%d, which no earlier instruction produced", u)
			}
			if k < len(in) {
				in[k] = vals[u][j].Shape()
			}
		}
		if _, err := graph.InferShape(n.Kind, in, buf[:0]); err != nil && err != graph.ErrDeclaredShape {
			return fmt.Errorf("device %d: %w", j, err)
		}
	}
	return nil
}

// checkLayout refuses devices' buffers cur unless they hold a tensor of
// shape full in one layout: whole on each (shard < 0), or cut on dim shard
// into pieces that make the whole. A collective reads its tensor in such a
// layout, which a computation that read a stale one can fail to leave, and
// RelationOf tries each layout.
func checkLayout(cur []*tensor.Tensor, full tensor.Shape, shard int) error {
	total := 0
	for j, t := range cur {
		s := t.Shape()
		ok := len(s) == len(full) && shard < len(full)
		for d := 0; ok && d < len(s); d++ {
			ok = s[d] == full[d] || d == shard
		}
		if !ok {
			return fmt.Errorf("device %d holds shape %v, no layout of %v", j, s, full)
		}
		if shard >= 0 {
			total += s[shard]
		}
	}
	if shard >= 0 && total != full[shard] {
		return fmt.Errorf("the devices' dim %d sums to %d, not %d", shard, total, full[shard])
	}
	return nil
}

func replicate(t *tensor.Tensor, m int) []*tensor.Tensor {
	out := make([]*tensor.Tensor, m)
	for i := range out {
		out[i] = t
	}
	return out
}

func fill(t *tensor.Tensor, v float64) {
	for i := range t.Data() {
		t.Data()[i] = v
	}
}

// RelationOf classifies how distributed instances relate to the reference:
// it returns "identity", "all-reduce", or "all-gather(d)", or an error when
// no property explains the instances — which would falsify the synthesized
// program's semantics.
func RelationOf(ref *tensor.Tensor, instances []*tensor.Tensor) (string, error) {
	allEqual := true
	for _, inst := range instances {
		if !tensor.AllClose(inst, ref, rtol, atol) {
			allEqual = false
			break
		}
	}
	if allEqual {
		return "identity", nil
	}
	if checkLayout(instances, ref.Shape(), -1) == nil && tensor.AllClose(collective.AllReduceT(instances), ref, 1e-6, 1e-6) {
		return "all-reduce", nil
	}
	for d := 0; d < ref.Rank(); d++ {
		if checkLayout(instances, ref.Shape(), d) == nil && tensor.AllClose(collective.AllGatherT(instances, d), ref, rtol, atol) {
			return fmt.Sprintf("all-gather(%d)", d), nil
		}
	}
	return "", fmt.Errorf("no property explains the instances (ref shape %v)", ref.Shape())
}

// VerifyEquivalence runs both executions with random leaf data and checks
// that every tensor the distributed program produces is explained by a
// property of the reference tensor. It returns the first violation. Every
// ratio row must cover the m devices: a plan balanced for another device
// count is refused before anything runs.
func VerifyEquivalence(p *dist.Program, m int, b [][]float64, seed int64) error {
	for k, row := range b {
		if len(row) != m {
			return fmt.Errorf("runtime: verify on %d devices: ratio row %d holds %d ratios", m, k, len(row))
		}
	}
	g := p.Graph
	rng := rand.New(rand.NewSource(seed))
	leaves := map[graph.NodeID]*tensor.Tensor{}
	for i := range g.Nodes {
		id := graph.NodeID(i)
		k := g.Node(id).Kind
		if k == graph.Placeholder || k == graph.Parameter {
			leaves[id] = tensor.Rand(rng, g.Node(id).Shape...)
		}
	}
	ref, err := ExecSingle(g, leaves)
	if err != nil {
		return fmt.Errorf("runtime: reference execution: %w", err)
	}
	vvals, err := ExecDistributed(p, m, b, leaves)
	if err != nil {
		return fmt.Errorf("runtime: distributed execution: %w", err)
	}
	for id, instances := range vvals {
		if _, err := RelationOf(ref[id], instances); err != nil {
			return fmt.Errorf("runtime: tensor e%d (%v): %w", id, g.Node(id).Kind, err)
		}
	}
	// Outputs: the loss must be recoverable, and every gradient usable.
	if g.Loss >= 0 {
		if _, ok := vvals[g.Loss]; !ok {
			return fmt.Errorf("runtime: loss never produced")
		}
	}
	for param, grad := range g.Grads {
		if _, ok := vvals[grad]; !ok {
			return fmt.Errorf("runtime: gradient e%d of param e%d never produced", grad, param)
		}
	}
	return nil
}
