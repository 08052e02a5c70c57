package cost

import (
	"math"
	"slices"
	"testing"

	"hap/internal/autodiff"
	"hap/internal/cluster"
	"hap/internal/collective"
	"hap/internal/dist"
	"hap/internal/graph"
)

func mixed() *cluster.Cluster {
	return cluster.FromGPUs(cluster.DefaultNetwork(),
		cluster.MachineSpec{Type: cluster.V100, GPUs: 1},
		cluster.MachineSpec{Type: cluster.P100, GPUs: 1})
}

// handProgram builds a tiny DP program by hand:
// placeholder-shard(0); parameter; matmul; sum; ones; expand; transpose;
// matmul(grad); all-reduce(grad).
func handProgram(t *testing.T) (*dist.Program, *graph.Graph) {
	t.Helper()
	g := graph.New()
	x := g.AddPlaceholder("x", 0, 64, 32)
	w := g.AddParameter("w", 32, 16)
	y := g.AddOp(graph.MatMul, x, w)
	g.SetLoss(g.AddOp(graph.Sum, y))
	if err := autodiff.Backward(g); err != nil {
		t.Fatal(err)
	}
	gw := g.Grads[w]
	gy := g.Node(gw).Inputs[1] // aᵀ·gy
	xt := g.Node(gw).Inputs[0]
	ones := g.Node(gy).Inputs[0]
	p := &dist.Program{Graph: g}
	add := func(in dist.Instruction) { p.Instrs = append(p.Instrs, in) }
	add(dist.Instruction{Ref: x, Op: graph.Placeholder, ShardDim: 0})
	add(dist.Instruction{Ref: w, Op: graph.Parameter, ShardDim: -1})
	add(dist.Instruction{Ref: y, Op: graph.MatMul, ShardDim: -1, FlopsScaled: true})
	add(dist.Instruction{Ref: g.Loss, Op: graph.Sum, ShardDim: -1, FlopsScaled: true})
	add(dist.Instruction{Ref: ones, Op: graph.Ones, ShardDim: -1})
	add(dist.Instruction{Ref: gy, Op: graph.Expand, ShardDim: 0, FlopsScaled: true})
	add(dist.Instruction{Ref: xt, Op: graph.Transpose, ShardDim: -1, FlopsScaled: true})
	add(dist.Instruction{Ref: gw, Op: graph.MatMul, ShardDim: -1, FlopsScaled: true})
	add(dist.Comm(gw, collective.AllReduce, 0, 0))
	return p, g
}

func TestStagesSplit(t *testing.T) {
	p, _ := handProgram(t)
	st := Stages(p)
	if len(st) != 2 {
		t.Fatalf("stages = %d, want 2", len(st))
	}
	if st[0].Comm != nil || len(st[0].Comps) != 8 {
		t.Errorf("leading stage malformed: comm=%v comps=%d", st[0].Comm, len(st[0].Comps))
	}
	if st[1].Comm == nil || len(st[1].Comps) != 0 {
		t.Errorf("comm stage malformed")
	}
}

func TestEvaluateMatchesManualComputation(t *testing.T) {
	p, g := handProgram(t)
	c := mixed()
	b := UniformRatios(1, []float64{0.6, 0.4})
	got := Evaluate(c, p, b)

	// Manual: comp stage = max_j Σ flops·B_j/speed_j; comm = ring AR.
	flops := 0.0
	for _, in := range p.Instrs {
		if !in.IsComm {
			flops += g.Flops(in.Ref)
		}
	}
	comp0 := flops * 0.6 / c.Devices[0].Flops()
	comp1 := flops * 0.4 / c.Devices[1].Flops()
	comm := collective.Time(c, collective.AllReduce, g.Bytes(g.Grads[g.Params[0]]), b[0])
	want := math.Max(comp0, comp1) + comm
	if math.Abs(got-want)/want > 1e-9 {
		t.Errorf("Evaluate = %v, manual = %v", got, want)
	}
}

// stageWalk is the objective the beam search accumulates instruction by
// instruction: per stage, the opening collective's CommTime plus the worst
// device's AddIntraPenalty and AddCompTimes.
func stageWalk(c *cluster.Cluster, p *dist.Program, b [][]float64) float64 {
	t := 0.0
	acc := make([]float64, c.M())
	for _, st := range Stages(p) {
		clear(acc)
		if st.Comm != nil {
			t += CommTime(c, p.Graph, *st.Comm, b)
			AddIntraPenalty(c, p.Graph, *st.Comm, b, acc)
		}
		for _, in := range st.Comps {
			AddCompTimes(c, p.Graph, in, b, acc)
		}
		t += slices.Max(acc)
	}
	return t
}

// allCollectives is handProgram with a collective of every kind between its
// computations, each communicating the tensor just computed, so each of the
// model's five comm formulas opens a stage.
func allCollectives(t *testing.T) *dist.Program {
	p, g := handProgram(t)
	after := map[int]collective.Kind{
		0: collective.PaddedAllGather,  // x
		2: collective.ReduceScatter,    // y
		5: collective.AllToAll,         // gy
		6: collective.GroupedBroadcast, // xt
	}
	q := &dist.Program{Graph: g}
	for i, in := range p.Instrs {
		q.Instrs = append(q.Instrs, in)
		if k, ok := after[i]; ok {
			q.Instrs = append(q.Instrs, dist.Comm(in.Ref, k, 0, 0))
		}
	}
	return q
}

// The LP's extracted model must price a program as the search does: Eval
// against the stage walk, to 1e-12 relative — not to the bit, since the two
// associate the same terms differently. The cluster mixes multi-GPU
// machines (the intra-machine penalty, constant for All-Reduce and
// ratio-scaled otherwise) with a single GPU.
func TestStageModelEvalConsistent(t *testing.T) {
	p := allCollectives(t)
	kinds := map[collective.Kind]bool{}
	for _, in := range p.Instrs {
		if in.IsComm {
			kinds[in.Coll] = true
		}
	}
	if len(kinds) != 5 {
		t.Fatalf("program has %d collective kinds, want all 5", len(kinds))
	}
	c := cluster.FromMachines(cluster.DefaultNetwork(), 8,
		cluster.MachineSpec{Type: cluster.V100, GPUs: 4},
		cluster.MachineSpec{Type: cluster.P100, GPUs: 2},
		cluster.MachineSpec{Type: cluster.A100, GPUs: 1})
	model := Extract(c, p)
	for _, b := range [][][]float64{
		UniformRatios(1, c.ProportionalRatios()),
		UniformRatios(1, c.EvenRatios()),
		UniformRatios(1, []float64{0.2, 0.7, 0.1}),
	} {
		got, want := model.Eval(b), stageWalk(c, p, b)
		if math.Abs(got-want) > 1e-12*want {
			t.Errorf("Eval = %v, stage walk = %v at B = %v", got, want, b[0])
		}
	}
}

func TestReplicatedCompIsRatioIndependent(t *testing.T) {
	p, _ := handProgram(t)
	// Flip all comps to replicated: comp time must not change with ratios.
	for i := range p.Instrs {
		p.Instrs[i].FlopsScaled = false
	}
	c := mixed()
	model := Extract(c, p)
	a := model.Eval(UniformRatios(1, []float64{0.5, 0.5}))
	b := model.Eval(UniformRatios(1, []float64{0.9, 0.1}))
	if math.Abs(a-b) > 1e-12 {
		t.Errorf("replicated program cost varies with ratios: %v vs %v", a, b)
	}
}

func TestIntraPenaltyOnlyForMachineDevices(t *testing.T) {
	p, g := handProgram(t)
	single := mixed()
	machines := cluster.FromMachines(cluster.DefaultNetwork(), 8,
		cluster.MachineSpec{Type: cluster.V100, GPUs: 8},
		cluster.MachineSpec{Type: cluster.P100, GPUs: 8})
	b := UniformRatios(1, []float64{0.5, 0.5})
	acc1 := make([]float64, 2)
	acc2 := make([]float64, 2)
	comm := p.Instrs[len(p.Instrs)-1]
	AddIntraPenalty(single, g, comm, b, acc1)
	AddIntraPenalty(machines, g, comm, b, acc2)
	if acc1[0] != 0 {
		t.Error("single-GPU devices should pay no intra penalty")
	}
	if acc2[0] <= 0 {
		t.Error("machine devices should pay an intra penalty")
	}
}

func TestMemoryAndOOM(t *testing.T) {
	p, g := handProgram(t)
	c := mixed()
	b := UniformRatios(1, []float64{0.5, 0.5})
	mem := MemoryPerDevice(c, p, b)
	if mem[0] <= 0 {
		t.Fatal("no memory accounted")
	}
	// Parameters count OptimizerStates times.
	wBytes := g.Bytes(g.Params[0])
	if mem[0] < wBytes*OptimizerStates {
		t.Errorf("memory %v below parameter+optimizer floor %v", mem[0], wBytes*OptimizerStates)
	}
	if OOM(c, p, b) {
		t.Error("tiny model should fit")
	}
}

func TestBoundaryChargesOnlyAcrossSegments(t *testing.T) {
	p, g := handProgram(t)
	c := mixed()
	if n := len(Extract(c, p).Charges); n != 0 {
		t.Fatalf("unsegmented graph has %d boundary charges", n)
	}
	// Split right after the forward matmul so its (non-leaf) output crosses
	// the boundary into the loss segment.
	g.SegmentOf = make([]int, g.NumNodes())
	for i := 3; i < g.NumNodes(); i++ {
		g.SegmentOf[i] = 1
	}
	if n := len(Extract(c, p).Charges); n == 0 {
		t.Error("segmented graph should have boundary charges")
	}
}

func TestGroupedBroadcastRatioIndependentInModel(t *testing.T) {
	p, g := handProgram(t)
	p.Instrs[len(p.Instrs)-1] = dist.Comm(g.Grads[g.Params[0]], collective.GroupedBroadcast, 0, 0)
	c := mixed()
	model := Extract(c, p)
	last := model.Stages[len(model.Stages)-1]
	if last.CommMaxCoef != 0 {
		t.Errorf("grouped broadcast should have no max-ratio coefficient, got %v", last.CommMaxCoef)
	}
	if last.CommConst <= 0 {
		t.Error("grouped broadcast should have positive constant cost")
	}
}

// A device class is what the comp columns read of a device and nothing
// more: devices that differ only in name and machine share one, while a
// multi-GPU machine and a single GPU of equal flops do not — only the
// machine pays intra-machine aggregation.
func TestClasses(t *testing.T) {
	eightfold := cluster.DeviceType{Name: "P100x8", TFLOPS: 8 * cluster.P100.TFLOPS, MemGB: 12}
	c := &cluster.Cluster{Net: cluster.DefaultNetwork(), Devices: []cluster.VirtualDevice{
		{Name: "a", Type: cluster.P100, GPUs: 8, Machine: 0},
		{Name: "b", Type: cluster.V100, GPUs: 1, Machine: 1},
		{Name: "c", Type: cluster.P100, GPUs: 8, Machine: 2},
		{Name: "d", Type: eightfold, GPUs: 1, Machine: 3},
	}}
	if c.Devices[0].Flops() != c.Devices[3].Flops() {
		t.Fatalf("flops %v and %v differ: the split below would not be by GPUs alone", c.Devices[0].Flops(), c.Devices[3].Flops())
	}
	class, size := Classes(c)
	if !slices.Equal(class, []int{0, 1, 0, 2}) || !slices.Equal(size, []int{2, 1, 1}) {
		t.Errorf("Classes = %v, sizes %v; want [0 1 0 2], [2 1 1]", class, size)
	}
	p, _ := handProgram(t)
	model := Extract(c, p)
	if !slices.Equal(model.Class, class) || !slices.Equal(model.Size, size) {
		t.Errorf("Extract's classes %v, sizes %v; want %v, %v", model.Class, model.Size, class, size)
	}
	for _, sm := range model.Stages {
		if len(sm.CompConst) != 3 || len(sm.CompCoef[0]) != 3 {
			t.Fatalf("stage has %d/%d comp columns, want one per class", len(sm.CompConst), len(sm.CompCoef[0]))
		}
	}
}
