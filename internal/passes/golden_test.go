package passes

import (
	"strings"
	"testing"

	"hap/internal/collective"
	"hap/internal/dist"
)

// Golden disassembly tests: pass rewrites reviewed as before/after program
// listings, so a change to fusion behavior shows up as a readable test diff
// (Program.String is the paper's listing notation).

func golden(t *testing.T, p *dist.Program, want string) {
	t.Helper()
	got := strings.TrimSpace(p.String())
	want = strings.TrimSpace(want)
	if got != want {
		t.Errorf("disassembly mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

func TestGoldenReduceScatterAllGatherToAllReduce(t *testing.T) {
	p := reductionProgram(t,
		comm(collective.ReduceScatter, 0, 0),
		comm(collective.PaddedAllGather, 0, 0),
	)
	golden(t, p, `
e0 = placeholder-shard(1)  # x
e1 = parameter-shard(0)  # w
e2 = matmul(e0, e1)
e2 = reduce-scatter(e2, 0)
e2 = all-gather(e2, 0)
e3 = sum(e2)  # loss, replicated
`)
	if _, err := (CommFusion{}).Run(p, testCluster()); err != nil {
		t.Fatal(err)
	}
	golden(t, p, `
e0 = placeholder-shard(1)  # x
e1 = parameter-shard(0)  # w
e2 = matmul(e0, e1)
e2 = all-reduce(e2)
e3 = sum(e2)  # loss, replicated
`)
}

func TestGoldenReduceScatterAllToAllToReduceScatter(t *testing.T) {
	p := reductionProgram(t,
		comm(collective.ReduceScatter, 0, 0),
		comm(collective.AllToAll, 0, 1),
		comm(collective.PaddedAllGather, 1, 0),
	)
	golden(t, p, `
e0 = placeholder-shard(1)  # x
e1 = parameter-shard(0)  # w
e2 = matmul(e0, e1)
e2 = reduce-scatter(e2, 0)
e2 = all-to-all(e2, 0, 1)
e2 = all-gather(e2, 1)
e3 = sum(e2)  # loss, replicated
`)
	if _, err := (CommFusion{}).Run(p, testCluster()); err != nil {
		t.Fatal(err)
	}
	// The chain collapses fully: RS+A2A → RS(1), then RS(1)+AG(1) → AR.
	golden(t, p, `
e0 = placeholder-shard(1)  # x
e1 = parameter-shard(0)  # w
e2 = matmul(e0, e1)
e2 = all-reduce(e2)
e3 = sum(e2)  # loss, replicated
`)
}

func TestGoldenAllToAllAllGatherToAllGather(t *testing.T) {
	p := reductionProgram(t,
		comm(collective.ReduceScatter, 1, 0),
		comm(collective.AllToAll, 1, 0),
		comm(collective.GroupedBroadcast, 0, 0),
	)
	golden(t, p, `
e0 = placeholder-shard(1)  # x
e1 = parameter-shard(0)  # w
e2 = matmul(e0, e1)
e2 = reduce-scatter(e2, 1)
e2 = all-to-all(e2, 1, 0)
e2 = grouped-broadcast(e2, 0)
e3 = sum(e2)  # loss, replicated
`)
	if _, err := (CommFusion{}).Run(p, testCluster()); err != nil {
		t.Fatal(err)
	}
	// A2A+AG fuses to a gather on the source dim (keeping the grouped
	// implementation), which then chains with the RS into an all-reduce.
	golden(t, p, `
e0 = placeholder-shard(1)  # x
e1 = parameter-shard(0)  # w
e2 = matmul(e0, e1)
e2 = all-reduce(e2)
e3 = sum(e2)  # loss, replicated
`)
}

func TestGoldenExpandAllReduceLowering(t *testing.T) {
	p := reductionProgram(t, comm(collective.AllReduce, 0, 0))
	if n, err := (ExpandAllReduce{}).Run(p, testCluster()); err != nil || n != 1 {
		t.Fatalf("ExpandAllReduce changed %d (err %v), want 1", n, err)
	}
	// e2 is (16, 4): the lowering scatters the longest dimension (0).
	golden(t, p, `
e0 = placeholder-shard(1)  # x
e1 = parameter-shard(0)  # w
e2 = matmul(e0, e1)
e2 = reduce-scatter(e2, 0)
e2 = all-gather(e2, 0)
e3 = sum(e2)  # loss, replicated
`)
}
