// Package collective models the four MPI-style collectives of Sec. 2.2 plus
// the two heterogeneity-aware All-Gather implementations of Sec. 2.5.1.
//
// It provides three layers:
//
//   - analytic time models (ring algorithms over the cluster's α–β network
//     model) — the ground truth our simulated cluster exhibits;
//   - fitted linear models (α + bytes/β per collective), reproducing the
//     paper's NCCL profiling + linear fit (Sec. 3.2);
//   - a data plane over real tensors, used by the numeric runtime to
//     validate that synthesized programs are semantically equivalent to the
//     single-device program.
package collective

import (
	"fmt"

	"hap/internal/cluster"
	"hap/internal/tensor"
)

// Kind enumerates collective operations (including implementation variants).
type Kind uint8

// Collective kinds. PaddedAllGather and GroupedBroadcast are the two
// All-Gather implementations whose trade-off Fig. 4 studies.
const (
	AllReduce Kind = iota
	PaddedAllGather
	GroupedBroadcast
	ReduceScatter
	AllToAll
)

var kindNames = map[Kind]string{
	AllReduce: "all-reduce", PaddedAllGather: "all-gather",
	GroupedBroadcast: "grouped-broadcast", ReduceScatter: "reduce-scatter",
	AllToAll: "all-to-all",
}

func (k Kind) String() string {
	if n, ok := kindNames[k]; ok {
		return n
	}
	return fmt.Sprintf("collective(%d)", int(k))
}

// kindByName is kindNames reversed, for ParseKind.
var kindByName = func() map[string]Kind {
	m := make(map[string]Kind, len(kindNames))
	for k, n := range kindNames {
		m[n] = k
	}
	return m
}()

// ParseKind returns the collective kind with the given name (as produced by
// Kind.String). Serialized programs store kinds by name so the format
// survives enum renumbering.
func ParseKind(name string) (Kind, bool) {
	k, ok := kindByName[name]
	return k, ok
}

// MaxRatio returns the largest sharding ratio — the padded-collective
// bottleneck (Sec. 2.4: communication time depends on the largest shard).
func MaxRatio(ratios []float64) float64 {
	m := 0.0
	for _, r := range ratios {
		if r > m {
			m = r
		}
	}
	return m
}

// Time returns the analytic execution time of a collective moving a tensor
// of totalBytes sharded with the given ratios across the cluster's virtual
// devices. For AllReduce the ratios are ignored (replicas are full-size).
func Time(c *cluster.Cluster, k Kind, totalBytes float64, ratios []float64) float64 {
	m := float64(c.M())
	if m <= 1 {
		return 0
	}
	bw := c.EffectiveBW()
	lat := c.EffectiveLatency()
	oh := c.Net.KernelOverhead
	switch k {
	case AllReduce:
		// Ring all-reduce: 2(m-1) steps of totalBytes/m each.
		return oh + 2*(m-1)*(lat+totalBytes/m/bw)
	case PaddedAllGather, ReduceScatter:
		// NCCL requires equal shards: pad to the largest (Sec. 2.5.1).
		// Ring: (m-1) steps of maxShard each, plus a pad+trim pass.
		maxShard := MaxRatio(ratios) * totalBytes
		return 2*oh + (m-1)*(lat+maxShard/bw)
	case GroupedBroadcast:
		// One Broadcast per shard inside an NCCL group call: no padding,
		// but a kernel launch per shard and un-optimized broadcast paths.
		t := 0.0
		for _, r := range ratios {
			t += oh + lat + r*totalBytes/(bw*c.Net.BroadcastFactor)
		}
		return t
	case AllToAll:
		// Each device exchanges its shard with all peers; bounded by the
		// busiest device, which handles at most maxShard both ways.
		maxShard := MaxRatio(ratios) * totalBytes
		return oh + (m-1)*lat + maxShard*(m-1)/m/bw
	default:
		panic(fmt.Sprintf("collective: unknown kind %v", k))
	}
}

// LinearModel is the fitted per-collective cost model of Sec. 3.2:
// time ≈ Alpha + bytes·InvBW, evaluated on the largest shard size.
type LinearModel struct {
	Alpha float64 // fixed latency, seconds
	InvBW float64 // seconds per byte
}

// Eval returns the modeled time for the given byte count.
func (lm LinearModel) Eval(bytes float64) float64 {
	return lm.Alpha + bytes*lm.InvBW
}

// Fit profiles a collective on the cluster at several even-sharded sizes
// and least-squares fits the latency/bandwidth linear model, mirroring the
// artifact's profiler.py.
func Fit(c *cluster.Cluster, k Kind) LinearModel {
	sizes := []float64{64 << 10, 256 << 10, 1 << 20, 4 << 20, 16 << 20, 64 << 20}
	even := c.EvenRatios()
	var sx, sy, sxx, sxy float64
	n := float64(len(sizes))
	for _, s := range sizes {
		x := MaxRatio(even) * s // largest shard, the model's input
		y := Time(c, k, s, even)
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return LinearModel{}
	}
	invBW := (n*sxy - sx*sy) / den
	alpha := (sy - invBW*sx) / n
	return LinearModel{Alpha: alpha, InvBW: invBW}
}

// --- Data plane ------------------------------------------------------------
//
// The data-plane functions implement Fig. 1 semantics on per-device tensors.
// Inputs and outputs are indexed by device.

// AllGatherT concatenates the per-device shards along dim d and returns the
// full tensor every device ends up with.
func AllGatherT(shards []*tensor.Tensor, d int) *tensor.Tensor {
	return tensor.Concat(d, shards...)
}

// AllReduceT element-wise sums the per-device replicas.
func AllReduceT(replicas []*tensor.Tensor) *tensor.Tensor {
	out := replicas[0].Clone()
	for _, r := range replicas[1:] {
		out = tensor.Add(out, r)
	}
	return out
}

// ReduceScatterT sums the replicas and splits the result along dim d into
// per-device shards of the given sizes.
func ReduceScatterT(replicas []*tensor.Tensor, d int, sizes []int) []*tensor.Tensor {
	return tensor.SplitSizes(AllReduceT(replicas), d, sizes)
}

// AllToAllT reshards: input shards are sharded on d1; the output shards are
// the same logical tensor sharded on d2 with the given sizes.
func AllToAllT(shards []*tensor.Tensor, d1, d2 int, outSizes []int) []*tensor.Tensor {
	full := tensor.Concat(d1, shards...)
	return tensor.SplitSizes(full, d2, outSizes)
}

// ShardSizes splits a dimension of length n into integer shard sizes
// proportional to ratios, summing exactly to n. It uses the paper's rounding
// scheme (Sec. 5.1): round to nearest, then fix the total one unit at a time
// on the shard with the smallest rounding error.
func ShardSizes(n int, ratios []float64) []int {
	m := len(ratios)
	sizes := make([]int, m)
	total := 0
	for i, r := range ratios {
		sizes[i] = int(r*float64(n) + 0.5)
		total += sizes[i]
	}
	for total != n {
		step := 1
		if total > n {
			step = -1
		}
		// Pick the shard whose adjustment introduces the smallest error
		// against its ideal fractional size.
		best, bestErr := -1, 0.0
		for i := range sizes {
			if step < 0 && sizes[i] == 0 {
				continue
			}
			ideal := ratios[i] * float64(n)
			err := abs(float64(sizes[i]+step) - ideal)
			if best == -1 || err < bestErr {
				best, bestErr = i, err
			}
		}
		sizes[best] += step
		total += step
	}
	return sizes
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
