// Stable JSON serialization of cluster specifications — the wire format a
// hap-serve client ships its cluster in. Decode validates the spec so a
// malformed request cannot produce NaN costs or a degenerate LP downstream.

package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// wireVersion is bumped on incompatible changes to the serialized form.
const wireVersion = 1

type clusterJSON struct {
	Version int          `json:"version"`
	Devices []deviceJSON `json:"devices"`
	Net     Network      `json:"net"`
}

type deviceJSON struct {
	Name    string  `json:"name,omitempty"`
	Type    string  `json:"type,omitempty"` // GPU model label, e.g. "V100"
	TFLOPS  float64 `json:"tflops"`
	MemGB   float64 `json:"mem_gb"`
	GPUs    int     `json:"gpus"`
	Machine int     `json:"machine"`
}

// Encode writes the cluster as indented (diffable, deterministic) JSON.
func (c *Cluster) Encode(w io.Writer) error {
	cj := clusterJSON{Version: wireVersion, Net: c.Net}
	for _, d := range c.Devices {
		cj.Devices = append(cj.Devices, deviceJSON{
			Name: d.Name, Type: d.Type.Name,
			TFLOPS: d.Type.TFLOPS, MemGB: d.Type.MemGB,
			GPUs: d.GPUs, Machine: d.Machine,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(cj)
}

// finitePos reports whether v is a finite, strictly positive number.
func finitePos(v float64) bool {
	return v > 0 && !math.IsInf(v, 0) && !math.IsNaN(v)
}

// positiveZero maps -0 to 0.
func positiveZero(v float64) float64 {
	if v == 0 {
		return 0
	}
	return v
}

// Decode reads a cluster written by Encode and validates it: at least one
// device, positive capability numbers, and a physically sensible network.
func Decode(r io.Reader) (*Cluster, error) {
	var cj clusterJSON
	if err := json.NewDecoder(r).Decode(&cj); err != nil {
		return nil, fmt.Errorf("cluster: decode: %w", err)
	}
	if cj.Version != wireVersion {
		return nil, fmt.Errorf("cluster: decode: unsupported cluster version %d (want %d)", cj.Version, wireVersion)
	}
	if len(cj.Devices) == 0 {
		return nil, fmt.Errorf("cluster: decode: no devices")
	}
	c := &Cluster{Net: cj.Net}
	for i, d := range cj.Devices {
		if !finitePos(d.TFLOPS) || !finitePos(d.MemGB) {
			return nil, fmt.Errorf("cluster: decode: device %d has tflops %v, mem_gb %v (want positive finite)", i, d.TFLOPS, d.MemGB)
		}
		if d.GPUs < 1 {
			return nil, fmt.Errorf("cluster: decode: device %d has %d GPUs", i, d.GPUs)
		}
		if d.Machine < 0 {
			return nil, fmt.Errorf("cluster: decode: device %d on machine %d", i, d.Machine)
		}
		c.Devices = append(c.Devices, VirtualDevice{
			Name:    d.Name,
			Type:    DeviceType{Name: d.Type, TFLOPS: d.TFLOPS, MemGB: d.MemGB},
			GPUs:    d.GPUs,
			Machine: d.Machine,
		})
	}
	// Belt-and-suspenders: the per-device checks above already force every
	// device to contribute positive flops, but the planner divides by
	// TotalFlops, so an unplannable cluster must never escape Decode.
	if c.TotalFlops() <= 0 {
		return nil, fmt.Errorf("cluster: decode: cluster has no achievable flops")
	}
	n := &c.Net
	if !finitePos(n.InterBW) || !finitePos(n.IntraBW) {
		return nil, fmt.Errorf("cluster: decode: network bandwidths %v, %v (want positive finite)", n.InterBW, n.IntraBW)
	}
	if n.InterLatency < 0 || n.IntraLatency < 0 || n.KernelOverhead < 0 {
		return nil, fmt.Errorf("cluster: decode: negative latency or overhead")
	}
	// The only fields the checks admit at zero. Fingerprint hashes a float's
	// bits, so a kept sign would give one cluster two cache keys.
	n.InterLatency = positiveZero(n.InterLatency)
	n.IntraLatency = positiveZero(n.IntraLatency)
	n.KernelOverhead = positiveZero(n.KernelOverhead)
	if n.BroadcastFactor <= 0 || n.BroadcastFactor > 1 || math.IsNaN(n.BroadcastFactor) {
		return nil, fmt.Errorf("cluster: decode: broadcast_factor %v (want in (0, 1])", n.BroadcastFactor)
	}
	return c, nil
}
