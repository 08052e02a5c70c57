// Package baselines reimplements the systems HAP is compared against in
// Sec. 7: DP-EV and DP-CP (PyTorch-DDP-style data parallelism with even or
// compute-proportional ratios), a DeepSpeed-like system (data parallelism
// plus expert parallelism for MoE layers, experts padded to a multiple of
// the device count), and a TAG-like system (data parallelism with automatic
// sufficient-factor-broadcasting, compute-proportional ratios).
//
// Each baseline is expressed as a *restriction* of HAP's background theory —
// the baseline's strategy space — searched by the same synthesizer and
// costed by the same models, which keeps the comparison apples-to-apples on
// our simulated substrate.
package baselines

import (
	"context"
	"fmt"

	"hap/internal/cluster"
	"hap/internal/cost"
	"hap/internal/dist"
	"hap/internal/graph"
	"hap/internal/synth"
	"hap/internal/theory"
)

// Plan is a baseline's chosen program, ratios and modeled cost.
type Plan struct {
	Name    string
	Program *dist.Program
	Ratios  [][]float64
	Cost    float64 // analytic t(Q,B); the simulator reports actual time
	OOM     bool
}

// leafWants returns, for a triple, whether every leaf requirement conforms
// to pure data parallelism: placeholders sharded on the batch dim and dense
// parameters replicated. allowExpertShard additionally admits rank-3 expert
// parameters sharded on the expert dimension (DeepSpeed expert parallelism).
func leafWants(g *graph.Graph, tr *theory.Triple, allowExpertShard bool) bool {
	for _, p := range tr.LeafPre() {
		n := g.Node(p.Ref)
		switch n.Kind {
		case graph.Placeholder:
			if !(p.Kind == theory.Gather && int(p.Dim) == n.BatchDim) {
				return false
			}
		case graph.Parameter:
			if p.Kind == theory.Identity {
				continue
			}
			if allowExpertShard && p.Kind == theory.Gather && p.Dim == 0 && len(n.Shape) == 3 {
				continue
			}
			return false
		}
	}
	return true
}

func plan(name string, g *graph.Graph, c *cluster.Cluster, th *theory.Theory,
	ratios []float64, opt synth.Options) (*Plan, error) {
	b := cost.UniformRatios(g.NumSegments(), ratios)
	p, _, err := synth.Synthesize(context.Background(), g, th, c, b, opt)
	if err != nil {
		return nil, fmt.Errorf("baselines: %s: %w", name, err)
	}
	return &Plan{
		Name:    name,
		Program: p,
		Ratios:  b,
		Cost:    cost.Evaluate(c, p, b),
		OOM:     cost.OOM(c, p, b),
	}, nil
}

func autoOpts() synth.Options {
	o := synth.Auto()
	o.DisableGroupedBroadcast = true // baselines use stock NCCL collectives
	return o
}

// DPEV builds the DP-EV baseline: data parallelism, even sharding ratios.
func DPEV(g *graph.Graph, c *cluster.Cluster) (*Plan, error) {
	th := theory.New(g).Filter(func(tr *theory.Triple) bool {
		return leafWants(g, tr, false) && !theory.IsSFB(g, tr)
	})
	return plan("DP-EV", g, c, th, c.EvenRatios(), autoOpts())
}

// DPCP builds the DP-CP baseline: data parallelism, ratios proportional to
// device compute power.
func DPCP(g *graph.Graph, c *cluster.Cluster) (*Plan, error) {
	th := theory.New(g).Filter(func(tr *theory.Triple) bool {
		return leafWants(g, tr, false) && !theory.IsSFB(g, tr)
	})
	return plan("DP-CP", g, c, th, c.ProportionalRatios(), autoOpts())
}

// DeepSpeed builds the DeepSpeed-like baseline: data parallelism for dense
// layers plus expert parallelism for MoE layers. Not heterogeneity-aware:
// even ratios. The caller is responsible for padding expert counts to a
// multiple of the device count (PadExperts), as DeepSpeed requires.
func DeepSpeed(g *graph.Graph, c *cluster.Cluster) (*Plan, error) {
	th := theory.New(g).Filter(func(tr *theory.Triple) bool {
		// DeepSpeed-MoE always partitions on the expert dimension.
		return leafWants(g, tr, true) && !theory.IsSFB(g, tr) && theory.ExpertParallel(g, tr)
	})
	return plan("DeepSpeed", g, c, th, c.EvenRatios(), autoOpts())
}

// TAG builds the TAG-like baseline: heterogeneity-aware data parallelism
// (compute-proportional ratios) with automatic sufficient factor
// broadcasting. The paper runs TAG only on VGG19 and BERT-Base; its
// inter-op placement mode is approximated by the SFB-enabled DP space
// (see DESIGN.md).
func TAG(g *graph.Graph, c *cluster.Cluster) (*Plan, error) {
	th := theory.New(g).Filter(func(tr *theory.Triple) bool {
		return leafWants(g, tr, false) // SFB triples allowed
	})
	return plan("TAG", g, c, th, c.ProportionalRatios(), autoOpts())
}

// PadExperts returns the expert count DeepSpeed actually allocates: the
// smallest multiple of devices ≥ experts (Sec. 7.6).
func PadExperts(experts, devices int) int {
	if experts%devices == 0 {
		return experts
	}
	return (experts/devices + 1) * devices
}
