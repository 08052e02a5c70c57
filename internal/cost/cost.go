// Package cost implements HAP's stage-based analytic cost model (Sec. 3.2).
//
// A distributed program's execution divides into stages: every communication
// instruction starts a new stage in which all devices synchronize; the
// per-iteration time is
//
//	t(Q,B) = Σ_i ( comm_i(B) + max_j comp_{i,j}(B_j) ).
//
// comp is linear in the device's sharding ratio (flops scale with the shard
// for sharded execution, are constant for replicated execution); comm is
// linear in the largest shard of the tensor (padded collectives) or constant
// (All-Reduce, grouped Broadcast). The package exposes both a direct
// evaluator and the extracted linear coefficients the load balancer's LP
// consumes (Sec. 5).
package cost

import (
	"slices"

	"hap/internal/cluster"
	"hap/internal/collective"
	"hap/internal/dist"
	"hap/internal/graph"
)

// AddCompTimes accumulates into acc the per-device execution time of one
// computation instruction under the given per-segment sharding ratios
// B[segment][device] — no allocation in the synthesizer's inner loop.
func AddCompTimes(c *cluster.Cluster, g *graph.Graph, in dist.Instruction, b [][]float64, acc []float64) {
	flops := g.Flops(in.Ref)
	if flops == 0 {
		return
	}
	seg := g.Segment(in.Ref)
	for j, d := range c.Devices {
		f := flops
		if in.FlopsScaled {
			f *= b[seg][j]
		}
		acc[j] += f / d.Flops()
	}
}

// CommTime returns the cost of one communication instruction under the
// given ratios: the fitted collective model evaluated on the tensor.
func CommTime(c *cluster.Cluster, g *graph.Graph, in dist.Instruction, b [][]float64) float64 {
	return collective.Time(c, in.Coll, g.Bytes(in.Ref), b[g.Segment(in.Ref)])
}

// AddIntraPenalty accumulates into acc the per-device intra-machine
// aggregation cost a machine-level virtual device pays around a global
// collective (Sec. 6: Gather/Reduce to GPU 0, then Scatter/Broadcast back).
// The paper folds this into comp_j of the stage.
func AddIntraPenalty(c *cluster.Cluster, g *graph.Graph, in dist.Instruction, b [][]float64, acc []float64) {
	bytes := g.Bytes(in.Ref)
	seg := g.Segment(in.Ref)
	for j, d := range c.Devices {
		if d.GPUs <= 1 {
			continue
		}
		local := bytes // All-Reduce replicas are full-size
		switch in.Coll {
		case collective.PaddedAllGather, collective.GroupedBroadcast,
			collective.ReduceScatter, collective.AllToAll:
			local = bytes * b[seg][j]
		}
		acc[j] += 2 * local / c.Net.IntraBW
	}
}

// Stage groups the instructions of one synchronization stage: an optional
// opening communication instruction followed by computation instructions.
type Stage struct {
	Comm  *dist.Instruction // nil for the leading stage
	Comps []dist.Instruction
}

// Stages splits a program into its synchronization stages. The stages are
// views into p.Instrs and copy no instruction: Comm points at the opening
// instruction and Comps is the run of computations after it, capped at its
// end. Callers must not append to Comps (the cap makes an append copy the
// stage away from the program rather than overwrite the next stage), and a
// write through either is a write to p.
func Stages(p *dist.Program) []Stage {
	n := 1
	for i := range p.Instrs {
		if p.Instrs[i].IsComm {
			n++
		}
	}
	stages := make([]Stage, 0, n)
	start := 0
	var comm *dist.Instruction
	for i := range p.Instrs {
		if p.Instrs[i].IsComm {
			stages = append(stages, Stage{Comm: comm, Comps: p.Instrs[start:i:i]})
			comm, start = &p.Instrs[i], i+1
		}
	}
	end := len(p.Instrs)
	stages = append(stages, Stage{Comm: comm, Comps: p.Instrs[start:end:end]})
	// Drop an empty leading stage (program starting with a collective).
	if stages[0].Comm == nil && len(stages[0].Comps) == 0 && len(stages) > 1 {
		stages = stages[1:]
	}
	return stages
}

// StageModel is the linearized cost of one stage, the LP's raw material:
//
//	stage time = CommConst + CommMaxCoef·max_j B[CommSeg][j]
//	           + max_j ( CompConst[c(j)] + Σ_k CompCoef[k][c(j)]·B[k][j] )
//
// where c(j) is device j's class (Model.Class): devices whose columns the
// extraction cannot tell apart share one.
type StageModel struct {
	CommConst   float64
	CommSeg     int
	CommMaxCoef float64
	CompCoef    [][]float64 // [segment][class]
	CompConst   []float64   // [class]
}

// Eval computes the stage time under per-device ratios b, class mapping
// each device to its column.
func (sm *StageModel) Eval(class []int, b [][]float64) float64 {
	t := sm.CommConst + sm.CommMaxCoef*maxOf(b[sm.CommSeg])
	worst := 0.0
	for j, cl := range class {
		cj := sm.CompConst[cl]
		for k := range sm.CompCoef {
			cj += sm.CompCoef[k][cl] * b[k][j]
		}
		if cj > worst {
			worst = cj
		}
	}
	return t + worst
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// BoundaryCharge is the All-To-All resharding cost charged for a tensor
// crossing a model-segment boundary (Sec. 5.2 inserts All-To-All at every
// boundary). Linearized as Alpha + Coef·(M_SegA + M_SegB)/2 where M_k is the
// largest ratio of segment k.
type BoundaryCharge struct {
	SegA, SegB int
	Alpha      float64
	Coef       float64
}

// Eval computes the charge under ratios b.
func (bc *BoundaryCharge) Eval(b [][]float64) float64 {
	return bc.Alpha + bc.Coef*(maxOf(b[bc.SegA])+maxOf(b[bc.SegB]))/2
}

// Model is the extracted linear cost model of one program on one cluster.
// Its comp columns are per device class, not per device: Class[j] is device
// j's class and Size[c] the number of devices in class c.
type Model struct {
	Cluster  *cluster.Cluster
	Graph    *graph.Graph
	Stages   []StageModel
	Charges  []BoundaryCharge
	Segments int
	Class    []int
	Size     []int
}

// Classes groups a cluster's devices by exactly what Extract's comp columns
// read of a device — its flops and whether it is a multi-GPU machine — in
// order of first appearance. Devices of one class have identical columns in
// every stage, so the ratio LP needs one variable per class, not per device.
func Classes(c *cluster.Cluster) (class, size []int) {
	type key struct {
		flops float64
		multi bool
	}
	var keys []key
	class = make([]int, len(c.Devices))
	for j, d := range c.Devices {
		k := key{d.Flops(), d.GPUs > 1}
		cl := slices.Index(keys, k)
		if cl < 0 {
			cl = len(keys)
			keys = append(keys, k)
			size = append(size, 0)
		}
		class[j] = cl
		size[cl]++
	}
	return class, size
}

// Extract linearizes a program's cost: one StageModel per stage plus the
// segment-boundary All-To-All charges.
func Extract(c *cluster.Cluster, p *dist.Program) *Model {
	g := p.Graph
	m := c.M()
	segs := g.NumSegments()
	class, size := Classes(c)
	model := &Model{Cluster: c, Graph: g, Segments: segs, Class: class, Size: size}

	bw := c.EffectiveBW()
	lat := c.EffectiveLatency()
	oh := c.Net.KernelOverhead
	mm := float64(m)

	// A representative device per class: the columns are computed once per
	// class, all carved from one slab.
	nc := len(size)
	reps := make([]cluster.VirtualDevice, nc)
	for j := len(class) - 1; j >= 0; j-- {
		reps[class[j]] = c.Devices[j]
	}
	stages := Stages(p)
	model.Stages = make([]StageModel, len(stages))
	slab := make([]float64, len(stages)*(segs+1)*nc)
	coefs := make([][]float64, len(stages)*segs)
	for si, st := range stages {
		sm := &model.Stages[si]
		sm.CompConst, slab = slab[:nc:nc], slab[nc:]
		sm.CompCoef, coefs = coefs[:segs:segs], coefs[segs:]
		for k := range sm.CompCoef {
			sm.CompCoef[k], slab = slab[:nc:nc], slab[nc:]
		}
		if st.Comm != nil && m > 1 {
			in := st.Comm
			bytes := g.Bytes(in.Ref)
			seg := g.Segment(in.Ref)
			sm.CommSeg = seg
			switch in.Coll {
			case collective.AllReduce:
				sm.CommConst = oh + 2*(mm-1)*(lat+bytes/mm/bw)
			case collective.PaddedAllGather, collective.ReduceScatter:
				sm.CommConst = 2*oh + (mm-1)*lat
				sm.CommMaxCoef = (mm - 1) * bytes / bw
			case collective.GroupedBroadcast:
				// Σ_j r_j = 1 makes the total ratio-independent.
				sm.CommConst = mm*(oh+lat) + bytes/(bw*c.Net.BroadcastFactor)
			case collective.AllToAll:
				sm.CommConst = oh + (mm-1)*lat
				sm.CommMaxCoef = bytes * (mm - 1) / mm / bw
			}
			// Intra-machine aggregation folded into comp (Sec. 6).
			for cl, d := range reps {
				if d.GPUs <= 1 {
					continue
				}
				if in.Coll == collective.AllReduce {
					sm.CompConst[cl] += 2 * bytes / c.Net.IntraBW
				} else {
					sm.CompCoef[seg][cl] += 2 * bytes / c.Net.IntraBW
				}
			}
		}
		for i := range st.Comps {
			in := &st.Comps[i]
			flops := g.Flops(in.Ref)
			if flops == 0 {
				continue
			}
			seg := g.Segment(in.Ref)
			for cl, d := range reps {
				if in.FlopsScaled {
					sm.CompCoef[seg][cl] += flops / d.Flops()
				} else {
					sm.CompConst[cl] += flops / d.Flops()
				}
			}
		}
	}

	// Segment-boundary All-To-All charges (Sec. 5.2): one per distinct
	// tensor consumed from another segment.
	if segs > 1 && m > 1 {
		charged := map[graph.NodeID]bool{}
		for i := range g.Nodes {
			v := graph.NodeID(i)
			for _, u := range g.Nodes[i].Inputs {
				if g.Segment(u) == g.Segment(v) || charged[u] || g.Node(u).Kind.IsLeaf() {
					continue
				}
				if len(g.Node(u).Shape) == 0 {
					continue // scalars need no resharding
				}
				charged[u] = true
				model.Charges = append(model.Charges, BoundaryCharge{
					SegA:  g.Segment(u),
					SegB:  g.Segment(v),
					Alpha: oh + (mm-1)*lat,
					Coef:  g.Bytes(u) * (mm - 1) / mm / bw,
				})
			}
		}
	}
	return model
}

// Eval computes t(Q,B) from the extracted model.
func (m *Model) Eval(b [][]float64) float64 {
	t := 0.0
	for i := range m.Stages {
		t += m.Stages[i].Eval(m.Class, b)
	}
	for i := range m.Charges {
		t += m.Charges[i].Eval(b)
	}
	return t
}

// Evaluate is the one-shot t(Q,B) used by the optimization loop.
func Evaluate(c *cluster.Cluster, p *dist.Program, b [][]float64) float64 {
	return Extract(c, p).Eval(b)
}

// OptimizerStates is the per-parameter memory multiple: parameter + gradient
// + two Adam moments, in element units.
const OptimizerStates = 4

// MemoryPerDevice estimates each device's peak memory for running program p
// under ratios b: parameter/gradient/optimizer state (sharded or replicated
// per the program's placements) plus stored activations.
func MemoryPerDevice(c *cluster.Cluster, p *dist.Program, b [][]float64) []float64 {
	g := p.Graph
	mem := make([]float64, c.M())
	for _, in := range p.Instrs {
		if in.IsComm {
			continue
		}
		n := g.Node(in.Ref)
		bytes := g.Bytes(in.Ref)
		seg := g.Segment(in.Ref)
		mult := 1.0
		switch n.Kind {
		case graph.Parameter:
			mult = OptimizerStates
		case graph.Ones, graph.Expand:
			mult = 0 // transient constants
		}
		sharded := in.FlopsScaled || in.ShardDim >= 0
		for j := range mem {
			local := bytes
			if sharded {
				local = bytes * b[seg][j]
			}
			mem[j] += local * mult
		}
	}
	return mem
}

// OOM reports whether any device exceeds its memory under program p.
func OOM(c *cluster.Cluster, p *dist.Program, b [][]float64) bool {
	mem := MemoryPerDevice(c, p, b)
	for j, d := range c.Devices {
		if mem[j] > d.MemBytes() {
			return true
		}
	}
	return false
}

// UniformRatios returns a [segments][m] ratio matrix replicating one ratio
// vector across all segments.
func UniformRatios(segments int, ratios []float64) [][]float64 {
	b := make([][]float64, segments)
	for k := range b {
		b[k] = append([]float64(nil), ratios...)
	}
	return b
}
