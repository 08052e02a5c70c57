package runtime

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"hap/internal/autodiff"
	"hap/internal/cluster"
	"hap/internal/collective"
	"hap/internal/cost"
	"hap/internal/dist"
	"hap/internal/graph"
	"hap/internal/models"
	"hap/internal/synth"
	"hap/internal/tensor"
	"hap/internal/theory"
)

func clusterOf(m int) *cluster.Cluster {
	specs := make([]cluster.MachineSpec, m)
	for i := range specs {
		t := cluster.V100
		if i%2 == 1 {
			t = cluster.P100
		}
		specs[i] = cluster.MachineSpec{Type: t, GPUs: 1}
	}
	return cluster.FromGPUs(cluster.DefaultNetwork(), specs...)
}

func synthFor(t *testing.T, g *graph.Graph, m int) (*cluster.Cluster, [][]float64, *theory.Theory) {
	t.Helper()
	c := clusterOf(m)
	b := cost.UniformRatios(1, c.ProportionalRatios())
	return c, b, theory.New(g)
}

func TestExecSingleMLPGradientsMatchFiniteDifference(t *testing.T) {
	g := models.Training(models.MLP(4, 3, 5, 2))
	rng := rand.New(rand.NewSource(1))
	leaves := map[graph.NodeID]*tensor.Tensor{}
	for i := range g.Nodes {
		id := graph.NodeID(i)
		k := g.Node(id).Kind
		if k == graph.Placeholder || k == graph.Parameter {
			leaves[id] = tensor.Rand(rng, g.Node(id).Shape...)
		}
	}
	vals, err := ExecSingle(g, leaves)
	if err != nil {
		t.Fatalf("ExecSingle: %v", err)
	}
	// Check dLoss/dw1[0,0] against a central finite difference.
	w1 := g.Params[0]
	grad := vals[g.Grads[w1]].At(0, 0)
	const h = 1e-6
	perturbed := func(delta float64) float64 {
		l2 := map[graph.NodeID]*tensor.Tensor{}
		for k, v := range leaves {
			l2[k] = v.Clone()
		}
		l2[w1].Data()[0] += delta
		out, err := ExecSingle(g, l2)
		if err != nil {
			t.Fatalf("ExecSingle perturbed: %v", err)
		}
		return out[g.Loss].At()
	}
	fd := (perturbed(h) - perturbed(-h)) / (2 * h)
	if diff := grad - fd; diff > 1e-4 || diff < -1e-4 {
		t.Errorf("autodiff grad %v vs finite difference %v", grad, fd)
	}
}

// The paper's central semantic claim: the synthesized distributed program is
// equivalent to the single-device program. Verified numerically end to end.
func TestSynthesizedProgramEquivalentMLP(t *testing.T) {
	for _, m := range []int{2, 3, 4} {
		g := models.Training(models.MLP(12, 6, 8, 4))
		c, b, th := synthFor(t, g, m)
		p, _, err := synth.Synthesize(context.Background(), g, th, c, b, synth.Options{})
		if err != nil {
			t.Fatalf("m=%d: Synthesize: %v", m, err)
		}
		if err := VerifyEquivalence(p, m, b, 42); err != nil {
			t.Errorf("m=%d: %v\nprogram:\n%s", m, err, p)
		}
	}
}

func TestSynthesizedProgramEquivalentWithActivations(t *testing.T) {
	g := graph.New()
	x := g.AddPlaceholder("x", 0, 8, 6)
	w1 := g.AddParameter("w1", 6, 10)
	w2 := g.AddParameter("w2", 10, 4)
	h := g.AddOp(graph.Sigmoid, g.AddOp(graph.MatMul, x, w1))
	h2 := g.AddOp(graph.GeLU, g.AddOp(graph.MatMul, h, w2))
	g.SetLoss(g.AddOp(graph.Sum, g.AddScale(h2, 0.25)))
	if err := autodiff.Backward(g); err != nil {
		t.Fatal(err)
	}
	c, b, th := synthFor(t, g, 3)
	p, _, err := synth.Synthesize(context.Background(), g, th, c, b, synth.Options{})
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	if err := VerifyEquivalence(p, 3, b, 7); err != nil {
		t.Errorf("equivalence: %v\n%s", err, p)
	}
}

func TestEquivalenceUnderUnevenRatios(t *testing.T) {
	g := models.Training(models.MLP(16, 8, 8, 4))
	c, _, th := synthFor(t, g, 2)
	b := [][]float64{{0.75, 0.25}}
	p, _, err := synth.Synthesize(context.Background(), g, th, c, b, synth.Options{})
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	if err := VerifyEquivalence(p, 2, b, 11); err != nil {
		t.Errorf("uneven ratios: %v\n%s", err, p)
	}
}

func TestRelationOfClassifications(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ref := tensor.Rand(rng, 4, 6)

	if r, err := RelationOf(ref, []*tensor.Tensor{ref, ref.Clone()}); err != nil || r != "identity" {
		t.Errorf("identity: %v %v", r, err)
	}

	half := tensor.Scale(ref, 0.5)
	if r, err := RelationOf(ref, []*tensor.Tensor{half, half}); err != nil || r != "all-reduce" {
		t.Errorf("all-reduce: %v %v", r, err)
	}

	parts := tensor.SplitSizes(ref, 1, []int{2, 4})
	if r, err := RelationOf(ref, parts); err != nil || r != "all-gather(1)" {
		t.Errorf("all-gather: %v %v", r, err)
	}

	junk := tensor.Rand(rng, 4, 6)
	if _, err := RelationOf(ref, []*tensor.Tensor{junk, junk}); err == nil {
		t.Error("junk instances should not match any property")
	}
}

// Property-based differential test: random small MLP-family graphs, random
// device counts — every synthesized program must be numerically equivalent.
func TestQuickRandomGraphEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("slow property test")
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		layers := 1 + rng.Intn(3)
		widths := []int{2 + rng.Intn(6)}
		for i := 0; i < layers; i++ {
			widths = append(widths, 2+rng.Intn(6))
		}
		batch := 4 + rng.Intn(8)
		g := models.Training(models.MLP(batch, widths...))
		m := 2 + rng.Intn(2)
		c := clusterOf(m)
		b := cost.UniformRatios(1, c.ProportionalRatios())
		p, _, err := synth.Synthesize(context.Background(), g, theory.New(g), c, b, synth.Options{})
		if err != nil {
			t.Logf("seed %d: synth: %v", seed, err)
			return false
		}
		if err := VerifyEquivalence(p, m, b, seed); err != nil {
			t.Logf("seed %d: %v\n%s", seed, err, p)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// A BERT-lite model with a tied embedding: Embed, EmbedGrad, Transpose and
// the matmul family all execute numerically, so the full embedding-model
// path gets the same end-to-end equivalence proof as the MLPs.
func TestSynthesizedProgramEquivalentEmbeddingModel(t *testing.T) {
	g := graph.New()
	ids := g.AddPlaceholder("ids", 0, 24)
	table := g.AddParameter("embed", 16, 8)
	x := g.AddEmbed(ids, table)
	w := g.AddParameter("w", 8, 8)
	h := g.AddOp(graph.GeLU, g.AddOp(graph.MatMul, x, w))
	headW := g.AddOp(graph.Transpose, table)
	logits := g.AddOp(graph.MatMul, h, headW)
	g.SetLoss(g.AddOp(graph.Sum, g.AddScale(logits, 1.0/24)))
	if err := autodiff.Backward(g); err != nil {
		t.Fatal(err)
	}
	for _, m := range []int{2, 3} {
		c, b, th := synthFor(t, g, m)
		p, _, err := synth.Synthesize(context.Background(), g, th, c, b, synth.Options{})
		if err != nil {
			t.Fatalf("m=%d: Synthesize: %v", m, err)
		}
		if err := VerifyEquivalence(p, m, b, 13); err != nil {
			t.Errorf("m=%d: %v\n%s", m, err, p)
		}
	}
}

func TestCostOnlyOpsRejected(t *testing.T) {
	g := graph.New()
	x := g.AddPlaceholder("x", 0, 4, 300)
	w := g.AddParameter("w", 27, 8)
	cnv := g.AddConv(x, w, 80, 1000)
	g.SetLoss(g.AddOp(graph.Sum, cnv))
	leaves := map[graph.NodeID]*tensor.Tensor{
		x: tensor.New(4, 300), w: tensor.New(27, 8),
	}
	if _, err := ExecSingle(g, leaves); err == nil {
		t.Error("conv should be cost-only")
	}
}

// TestExecDistributedRefusesWhatNoKernelTakes: a computation reading a
// tensor no earlier instruction produced or local operands its op cannot
// take, and a collective whose devices hold no layout of its tensor, are
// errors naming the instruction, not kernel panics.
func TestExecDistributedRefusesWhatNoKernelTakes(t *testing.T) {
	g := graph.New()
	x := g.AddPlaceholder("x", 0, 8, 4)
	w := g.AddParameter("w", 4, 3)
	y := g.AddOp(graph.MatMul, x, w)
	load := func(ref graph.NodeID, shard int) dist.Instruction {
		return dist.Instruction{Ref: ref, ShardDim: shard, Op: g.Node(ref).Kind}
	}
	mm := dist.Instruction{Ref: y, ShardDim: -1, Op: graph.MatMul, FlopsScaled: true}
	leaves := map[graph.NodeID]*tensor.Tensor{x: tensor.Ones(8, 4), w: tensor.Ones(4, 3)}
	for _, tc := range []struct {
		instrs []dist.Instruction
		want   string
	}{
		{[]dist.Instruction{load(x, 0), mm}, "runtime: instruction 1 (e2 = matmul(e0, e1)): reads e1, which no earlier instruction produced"},
		{[]dist.Instruction{load(x, 1), load(w, -1), mm}, "runtime: instruction 2 (e2 = matmul(e0, e1)): device 0: graph: matmul shape mismatch [8 2] · [4 3]"},
		{[]dist.Instruction{load(x, -1), load(w, -1), mm, dist.Comm(y, collective.PaddedAllGather, 0, 0)}, "runtime: instruction 3 (all-gather(e2, 0)): the devices' dim 0 sums to 16, not 8"},
		{[]dist.Instruction{load(x, 0), load(w, -1), mm, dist.Comm(y, collective.AllReduce, 0, 0)}, "runtime: instruction 3 (all-reduce(e2)): device 0 holds shape [4 3], no layout of [8 3]"},
	} {
		p := &dist.Program{Graph: g, Instrs: tc.instrs}
		if _, err := ExecDistributed(p, 2, [][]float64{{0.5, 0.5}}, leaves); err == nil || err.Error() != tc.want {
			t.Errorf("%s: error %v, want %q", p, err, tc.want)
		}
	}
}
