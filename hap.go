// Package hap is an automated system for SPMD training of deep neural
// networks on heterogeneous GPU clusters, reproducing "HAP: SPMD DNN
// Training on Heterogeneous GPU Clusters with Automated Program Synthesis"
// (EuroSys 2024).
//
// Given a single-device training graph and a cluster specification, HAP
// jointly decides the tensor sharding strategy (by synthesizing a
// distributed program with an A*-guided syntax-guided search), the sharding
// ratios across heterogeneous devices (by linear programming), and the
// communication method per collective (padded All-Gather vs grouped
// Broadcast, sufficient factor broadcasting) — Sec. 3–5 of the paper.
//
// The API centers on the context-aware Planner: build a model graph,
// describe the cluster, plan:
//
//	g := hap.NewGraph()
//	x := g.AddPlaceholder("x", 0, 512, 784)
//	w := g.AddParameter("w", 784, 10)
//	g.SetLoss(g.AddOp(hap.MatMul, x, w)) // ... then Backward(g)
//	p := hap.NewPlanner(hap.Heterogeneous(...))
//	plan, err := p.Plan(ctx, g)
//
// The plan contains the SPMD program every device executes, the per-segment
// sharding ratios, and the modeled per-iteration time. The numeric runtime
// (hap.Verify) checks the synthesized program is semantically equivalent to
// the single-device graph, and the simulator (hap.Simulate) reports the
// "actual" time on the modeled cluster.
package hap

import (
	"fmt"
	"io"

	"hap/internal/autodiff"
	"hap/internal/cluster"
	"hap/internal/dist"
	"hap/internal/graph"
	"hap/internal/runtime"
	"hap/internal/sim"
)

// Re-exported graph construction API.
type (
	// Graph is a single-device training program.
	Graph = graph.Graph
	// NodeID names a tensor in the graph.
	NodeID = graph.NodeID
	// OpKind is a single-device operator.
	OpKind = graph.OpKind
	// Cluster describes the devices and interconnect.
	Cluster = cluster.Cluster
	// DeviceType is a GPU model.
	DeviceType = cluster.DeviceType
	// MachineSpec describes one machine for cluster builders.
	MachineSpec = cluster.MachineSpec
	// Program is a synthesized SPMD program.
	Program = dist.Program
)

// Common operator kinds (see internal/graph for the full set).
const (
	MatMul  = graph.MatMul
	Add     = graph.Add
	Mul     = graph.Mul
	ReLU    = graph.ReLU
	GeLU    = graph.GeLU
	Sigmoid = graph.Sigmoid
	Softmax = graph.Softmax
	Sum     = graph.Sum
)

// GPU models of the paper's testbed.
var (
	V100 = cluster.V100
	P100 = cluster.P100
	A100 = cluster.A100
)

// NewGraph returns an empty single-device graph.
func NewGraph() *Graph { return graph.New() }

// Backward appends the training backward pass (parameter gradients).
func Backward(g *Graph) error { return autodiff.Backward(g) }

// Heterogeneous builds a cluster with one machine-level virtual device per
// machine, like the paper's testbed.
func Heterogeneous(machines ...MachineSpec) *Cluster {
	return cluster.FromMachines(cluster.DefaultNetwork(), 0, machines...)
}

// PerGPU builds a cluster with one virtual device per GPU.
func PerGPU(machines ...MachineSpec) *Cluster {
	return cluster.FromGPUs(cluster.DefaultNetwork(), machines...)
}

// Options tunes a Planner (see NewPlanner, WithOptions and the per-field
// With* options).
type Options struct {
	// Segments > 1 enables per-segment sharding ratios (Sec. 5.2).
	Segments int
	// SeedGraph and SeedPlan supply a donor plan for incremental synthesis:
	// when the donor graph is structurally close enough to the planned graph
	// (normalized segment-level diff ≤ 0.25), the search is seeded
	// from the donor plan — decisions in the unchanged region are pinned and
	// only the changed region is searched. A donor too far away silently
	// degrades to cold synthesis; exact A* ignores seeds. Both nil by
	// default. Seed inputs are deliberately not part of hap-serve's cache
	// key: they trade latency, never plan validity. Planning only reads
	// them, so one donor may seed concurrent Plan calls.
	SeedGraph *Graph
	SeedPlan  *Plan
}

// Plan is the result of Planner.Plan: what every worker runs.
type Plan struct {
	// Program is the SPMD program executed identically on all devices.
	Program *Program
	// Ratios are the sharding ratios B[segment][device].
	Ratios [][]float64
	// Cost is the modeled per-iteration time in seconds.
	Cost float64
	// SynthesisTime is the wall-clock time the optimization took, in
	// seconds. In-memory only: not serialized by WriteProgramBinary, so plan
	// bytes are a function of the inputs alone.
	SynthesisTime float64
	// Seeded reports whether the plan came out of a seeded (incremental)
	// search rather than a cold one, and SeedDistance the donor's normalized
	// structural distance. In-memory only: not serialized by
	// WriteProgramBinary — a reloaded plan is just a plan, regardless of how
	// it was found.
	Seeded       bool
	SeedDistance float64
}

// Verify numerically checks that the plan's program is semantically
// equivalent to the single-device graph (Sec. 4.2), executing both on
// random data across the given number of simulated devices — the device
// count the plan was balanced for (its cluster's M()), or Verify returns an
// error naming both counts.
func Verify(plan *Plan, devices int, seed int64) error {
	return runtime.VerifyEquivalence(plan.Program, devices, plan.Ratios, seed)
}

// Simulate runs the plan on the modeled cluster and returns the simulated
// per-iteration time in seconds (kernel overheads, barriers and link noise
// included — the analytic Cost underestimates this; Fig. 18). A plan whose
// ratio rows are not one per device of c is refused.
func Simulate(plan *Plan, c *Cluster, seed int64) (float64, error) {
	if err := checkWidth(plan, c, "simulate"); err != nil {
		return 0, err
	}
	return sim.IterationTime(c, plan.Program, plan.Ratios, seed), nil
}

// WriteTrace writes a Chrome-trace JSON of one simulated iteration, like
// the artifact's trace.json.gz. It refuses what Simulate refuses.
func WriteTrace(w io.Writer, plan *Plan, c *Cluster, seed int64) error {
	if err := checkWidth(plan, c, "trace"); err != nil {
		return err
	}
	r := sim.Trace(c, plan.Program, plan.Ratios, sim.Options{Seed: seed})
	return sim.WriteTrace(w, r.Events)
}

// checkWidth reports a ratio row of plan whose width is not c's device
// count, as Verify does.
func checkWidth(plan *Plan, c *Cluster, what string) error {
	for k, row := range plan.Ratios {
		if len(row) != c.M() {
			return fmt.Errorf("hap: %s on %d devices: ratio row %d holds %d ratios", what, c.M(), k, len(row))
		}
	}
	return nil
}
