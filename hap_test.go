package hap

import (
	"bytes"
	"context"
	"fmt"
	"io"
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
	if s, err := Simulate(plan, c, 1); err != nil || s < plan.Cost {
		t.Errorf("simulated %v (err %v) below analytic %v", s, err, plan.Cost)
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
	for _, sp := range tr.Export().Spans {
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

// TestSimulateRejectsDeviceCountMismatch: a 2-device plan simulated or
// traced on four devices is refused with both counts, as Verify refuses it,
// instead of indexing past its ratio rows.
func TestSimulateRejectsDeviceCountMismatch(t *testing.T) {
	c := testCluster()
	plan, err := planWith(testGraph(t), c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	wide := PerGPU(MachineSpec{Type: V100, GPUs: 4})
	want := "on 4 devices: ratio row 0 holds 2 ratios"
	if dt, err := Simulate(plan, wide, 1); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("Simulate on 4 devices = %v, %v; want an error containing %q", dt, err, want)
	}
	if err := WriteTrace(io.Discard, plan, wide, 1); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("WriteTrace on 4 devices: %v; want an error containing %q", err, want)
	}
	if err := Verify(plan, wide.M(), 1); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("Verify on 4 devices: %v; want an error containing %q", err, want)
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

// TestVerifyStaleReadIsAnError: the fast-network arm's plan of seed 23 on
// fastClusters()[1] reads e10 at e12 = matmul(e10, e11) after an
// all-to-all replaced the layout it reads (a stale read, ROADMAP AE), and a
// later computation reads the layout the all-to-all made, so the collective
// is live. The numeric runtime keeps one buffer per tensor, so the matmul's
// local operands disagree: Verify returns an error naming the instruction,
// where its kernel once panicked. (The witness was an MLP on a network 100
// times the paper's speed until the planner dropped collectives whose
// layout nothing reads: its plan has no stale read any more.)
func TestVerifyStaleReadIsAnError(t *testing.T) {
	plan, c, stale, _ := fastArmPlan(t, 23, 1)
	if stale == 0 {
		t.Fatalf("the witness has no stale read\n%s", plan.Program)
	}
	want := "runtime: distributed execution: runtime: instruction 13 (e12 = matmul(e10, e11)): device 0: graph: matmul shape mismatch [64 6] · [12 24]"
	if err := Verify(plan, c.M(), 23); err == nil || err.Error() != want {
		t.Errorf("Verify: %v, want %q\n%s", err, want, plan.Program)
	}
}
