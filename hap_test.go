package hap

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"hap/internal/obs"
)

func testCluster() *Cluster {
	return PerGPU(
		MachineSpec{Type: V100, GPUs: 1},
		MachineSpec{Type: P100, GPUs: 1},
	)
}

// planWith plans g on c under opt, with no deadline.
func planWith(g *Graph, c *Cluster, opt Options) (*Plan, error) {
	return NewPlanner(c, WithOptions(opt)).Plan(context.Background(), g)
}

func testGraph(t *testing.T) *Graph {
	t.Helper()
	g := NewGraph()
	x := g.AddPlaceholder("x", 0, 64, 32)
	w1 := g.AddParameter("w1", 32, 48)
	w2 := g.AddParameter("w2", 48, 8)
	h := g.AddOp(ReLU, g.AddOp(MatMul, x, w1))
	g.SetLoss(g.AddOp(Sum, g.AddScale(g.AddOp(MatMul, h, w2), 1.0/64)))
	if err := Backward(g); err != nil {
		t.Fatal(err)
	}
	return g
}

func TestParallelizeEndToEnd(t *testing.T) {
	g := testGraph(t)
	c := testCluster()
	plan, err := planWith(g, c, Options{})
	if err != nil {
		t.Fatalf("Plan: %v", err)
	}
	if plan.Cost <= 0 || len(plan.Program.Instrs) == 0 {
		t.Fatal("degenerate plan")
	}
	if err := Verify(plan, c.M(), 5); err != nil {
		t.Errorf("Verify: %v", err)
	}
	if s := Simulate(plan, c, 1); s < plan.Cost {
		t.Errorf("simulated %v below analytic %v", s, plan.Cost)
	}
}

// Automatic mode plans a graph of at most 24 nodes on at most 2 devices with
// exact A*, which every search span of the plan records as its mode.
func TestParallelizeExactSearch(t *testing.T) {
	g := testGraph(t)
	tr := obs.New("", "")
	root := tr.Root("plan", 0)
	plan, err := NewPlanner(testCluster()).Plan(obs.ContextWithSpan(context.Background(), root), g)
	root.End()
	if err != nil {
		t.Fatalf("Plan: %v", err)
	}
	searches := 0
	for _, sp := range tr.Snapshot() {
		if sp.Name != "search" {
			continue
		}
		searches++
		if mode := sp.Attrs["mode"]; mode != "astar" {
			t.Errorf("search %d ran in mode %q, want astar", searches, mode)
		}
	}
	if searches == 0 {
		t.Fatal("no search span recorded")
	}
	if err := Verify(plan, 2, 9); err != nil {
		t.Errorf("Verify: %v", err)
	}
}

func TestWriteTraceAPI(t *testing.T) {
	g := testGraph(t)
	c := testCluster()
	plan, err := planWith(g, c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, plan, c, 1); err != nil {
		t.Fatalf("WriteTrace: %v", err)
	}
	if !strings.Contains(buf.String(), "traceEvents") {
		t.Error("trace missing traceEvents")
	}
}

func TestHeterogeneousBuilder(t *testing.T) {
	c := Heterogeneous(
		MachineSpec{Type: V100, GPUs: 8},
		MachineSpec{Type: P100, GPUs: 8},
	)
	if c.M() != 2 || c.TotalGPUs() != 16 {
		t.Errorf("M=%d GPUs=%d", c.M(), c.TotalGPUs())
	}
}

// A plan loaded from disk carries no cluster, so Verify's device count can
// disagree with the width of the plan's ratio rows. It must say so, naming
// both counts, instead of panicking (more devices than ratios) or reporting
// a misleading equivalence failure (fewer).
func TestVerifyRejectsDeviceCountMismatch(t *testing.T) {
	c := testCluster()
	plan, err := planWith(testGraph(t), c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []int{1, 8} {
		err := Verify(plan, m, 1)
		if err == nil {
			t.Errorf("Verify on %d devices accepted a plan balanced for %d", m, c.M())
			continue
		}
		for _, want := range []string{fmt.Sprintf("%d devices", m), fmt.Sprintf("%d ratios", c.M())} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("Verify on %d devices: error %q does not mention %q", m, err, want)
			}
		}
	}
	if err := Verify(plan, c.M(), 1); err != nil {
		t.Errorf("Verify on the plan's own %d devices: %v", c.M(), err)
	}
}
