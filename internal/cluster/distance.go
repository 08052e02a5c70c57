// Drift quantification between two cluster specifications. The serve tier
// compares the spec cluster a plan was synthesized against with the cluster
// live telemetry says the fleet actually is; Distance turns that comparison
// into one scalar a threshold can gate drift replanning on.

package cluster

import "math"

// Distance returns a scalar drift metric between two clusters: the maximum
// relative change across every capability plan synthesis consumes — each
// device's achievable flops and memory, and every network-model parameter.
// Identical clusters are at distance 0; a link running at half its spec
// bandwidth is at 0.5; structurally different clusters (device count, GPU
// counts, machine placement) are infinitely distant, because no relative
// change describes them. Infinite drift is still drift the ratios absorb:
// when a device drops out, the serve tier re-solves each cached program's
// sharding ratios over the survivors.
//
// The metric is symmetric (relative deltas are normalized by the larger
// magnitude) and ignores device and type names, mirroring Fingerprint: a
// rename is not drift.
func Distance(a, b *Cluster) float64 {
	if a == nil || b == nil {
		if a == b {
			return 0
		}
		return math.Inf(1)
	}
	if len(a.Devices) != len(b.Devices) {
		return math.Inf(1)
	}
	d := 0.0
	for i := range a.Devices {
		da, db := a.Devices[i], b.Devices[i]
		if da.GPUs != db.GPUs || da.Machine != db.Machine {
			return math.Inf(1)
		}
		d = math.Max(d, relDelta(da.Flops(), db.Flops()))
		d = math.Max(d, relDelta(da.MemBytes(), db.MemBytes()))
	}
	for _, pair := range [][2]float64{
		{a.Net.InterBW, b.Net.InterBW},
		{a.Net.InterLatency, b.Net.InterLatency},
		{a.Net.IntraBW, b.Net.IntraBW},
		{a.Net.IntraLatency, b.Net.IntraLatency},
		{a.Net.KernelOverhead, b.Net.KernelOverhead},
		{a.Net.BroadcastFactor, b.Net.BroadcastFactor},
	} {
		d = math.Max(d, relDelta(pair[0], pair[1]))
	}
	return d
}

// relDelta is the relative difference of two non-negative quantities,
// normalized by the larger so the result is symmetric and lands in [0, 1]
// for same-signed inputs. Two zeros are identical; one zero against a
// positive value is total drift (1), not a division blow-up.
func relDelta(x, y float64) float64 {
	if x == y {
		return 0
	}
	denom := math.Max(math.Abs(x), math.Abs(y))
	if denom == 0 || math.IsNaN(denom) {
		return 0
	}
	return math.Abs(x-y) / denom
}
