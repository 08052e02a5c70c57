package baselines

import (
	"testing"

	"hap/internal/cluster"
	"hap/internal/collective"
	"hap/internal/models"
	"hap/internal/theory"
)

func hetero() *cluster.Cluster {
	return cluster.FromGPUs(cluster.DefaultNetwork(),
		cluster.MachineSpec{Type: cluster.V100, GPUs: 2},
		cluster.MachineSpec{Type: cluster.P100, GPUs: 2})
}

func TestDPProgramIsDataParallel(t *testing.T) {
	g := models.Training(models.MLP(256, 64, 128, 10))
	p, err := DPEV(g, hetero())
	if err != nil {
		t.Fatalf("DPEV: %v", err)
	}
	// Data parallelism: every parameter replicated, every placeholder
	// sharded on the batch dim, gradients synchronized.
	for _, in := range p.Program.Instrs {
		if in.IsComm {
			continue
		}
		switch in.Op {
		case 1: // graph.Parameter
			if in.ShardDim != -1 {
				t.Errorf("DP parameter sharded: %s", in.Text(g))
			}
		case 0: // graph.Placeholder
			if in.ShardDim != 0 {
				t.Errorf("DP placeholder not batch-sharded: %s", in.Text(g))
			}
		}
	}
	syncs := p.Program.CollectiveCount()[collective.AllReduce] +
		p.Program.CollectiveCount()[collective.ReduceScatter]
	if syncs == 0 {
		t.Errorf("DP program has no gradient synchronization:\n%s", p.Program)
	}
}

func TestDPCPDiffersOnlyInRatios(t *testing.T) {
	g := models.Training(models.MLP(256, 64, 128, 10))
	c := hetero()
	ev, err1 := DPEV(g, c)
	cp, err2 := DPCP(g, c)
	if err1 != nil || err2 != nil {
		t.Fatalf("%v %v", err1, err2)
	}
	if ev.Ratios[0][0] == cp.Ratios[0][0] {
		t.Error("EV and CP should use different ratios on a heterogeneous cluster")
	}
}

func TestTAGAllowsSFB(t *testing.T) {
	g := models.Training(models.MLP(256, 64, 128, 10))
	th := theory.New(g)
	sfb := 0
	filtered := th.Filter(func(tr *theory.Triple) bool { return theory.IsSFB(g, tr) })
	for _, trs := range filtered.ByNode {
		sfb += len(trs)
	}
	if sfb == 0 {
		t.Error("no SFB triples exist in the theory at all")
	}
	if _, err := TAG(g, hetero()); err != nil {
		t.Errorf("TAG: %v", err)
	}
}

func TestDeepSpeedExpertParallelOnMoE(t *testing.T) {
	g := models.Build(models.ModelBERTMoE, 4)
	c := hetero()
	p, err := DeepSpeed(g, c)
	if err != nil {
		t.Fatalf("DeepSpeed: %v", err)
	}
	// Expert parallelism: at least one rank-3 parameter sharded on dim 0.
	found := false
	for _, in := range p.Program.Instrs {
		if !in.IsComm && in.Op == 1 && in.ShardDim == 0 {
			found = true
		}
	}
	if !found {
		t.Error("DeepSpeed plan shards no expert parameters")
	}
}

func TestPadExperts(t *testing.T) {
	cases := [][3]int{{4, 4, 4}, {5, 4, 8}, {8, 4, 8}, {9, 4, 12}, {1, 4, 4}}
	for _, c := range cases {
		if got := PadExperts(c[0], c[1]); got != c[2] {
			t.Errorf("PadExperts(%d,%d) = %d, want %d", c[0], c[1], got, c[2])
		}
	}
}

func TestDPOOMOnMoE(t *testing.T) {
	// Pure DP replicates all experts on every device; at scale this must
	// exceed device memory (the paper's observed OOM for DP on BERT-MoE).
	g := models.Build(models.ModelBERTMoE, 16)
	c := cluster.PaperHeterogeneous(2) // 8 machines × 2 GPUs
	p, err := DPEV(g, c)
	if err != nil {
		t.Fatalf("DPEV: %v", err)
	}
	if !p.OOM {
		t.Error("DP-EV on BERT-MoE@16 should be out of memory")
	}
}
