package cluster_test

import (
	"bytes"
	"math"
	"testing"

	"hap/internal/cluster"
)

// FuzzClusterDecode holds cluster.Decode, which parses the cluster of every
// full-body request and telemetry report, to three properties: no input
// panics it, an accepted cluster carries no negative zero (Fingerprint hashes
// a float's bits, so a kept sign would give one cluster two cache keys), and
// it re-encodes to bytes that decode to the same fingerprint.
func FuzzClusterDecode(f *testing.F) {
	zeroNet := cluster.DefaultNetwork()
	zeroNet.InterLatency, zeroNet.IntraLatency, zeroNet.KernelOverhead = 0, 0, 0
	for _, c := range []*cluster.Cluster{
		cluster.FromGPUs(cluster.DefaultNetwork(),
			cluster.MachineSpec{Type: cluster.V100, GPUs: 1},
			cluster.MachineSpec{Type: cluster.P100, GPUs: 1}),
		cluster.FromGPUs(zeroNet, cluster.MachineSpec{Type: cluster.V100, GPUs: 2}),
		cluster.PaperHeterogeneous(2),
		cluster.PaperA100P100(),
	} {
		var buf bytes.Buffer
		if err := c.Encode(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	for _, body := range []string{
		`{"version":1,"devices":[{"tflops":1,"mem_gb":1,"gpus":1,"machine":0}],"net":{"inter_bw":1,"intra_bw":1,"broadcast_factor":1}}`,
		`{"version":1,"devices":[{"tflops":1,"mem_gb":1,"gpus":1,"machine":0}],"net":{"inter_bw":1,"intra_bw":1,"inter_latency":-0,"broadcast_factor":1}}`,
		`{"version":1,"devices":[{"tflops":1e308,"mem_gb":1e308,"gpus":9223372036854775807,"machine":0}],"net":{"inter_bw":1,"intra_bw":1,"broadcast_factor":1}}`,
		`{"version":1,"devices":[{"tflops":-0,"mem_gb":1,"gpus":1,"machine":0}],"net":{"inter_bw":1,"intra_bw":1,"broadcast_factor":1}}`,
		`{"version":1,"devices":[],"net":{}}`,
		`{"version":2}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := cluster.Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		n := c.Net
		for _, v := range []float64{n.InterBW, n.InterLatency, n.IntraBW, n.IntraLatency, n.KernelOverhead, n.BroadcastFactor} {
			if math.Signbit(v) {
				t.Fatalf("accepted network %+v carries a negative sign", n)
			}
		}
		for i, d := range c.Devices {
			if math.Signbit(d.Type.TFLOPS) || math.Signbit(d.Type.MemGB) {
				t.Fatalf("accepted device %d %+v carries a negative sign", i, d.Type)
			}
		}
		var buf bytes.Buffer
		if err := c.Encode(&buf); err != nil {
			t.Fatalf("Encode of an accepted cluster: %v", err)
		}
		again, err := cluster.Decode(&buf)
		if err != nil {
			t.Fatalf("the re-encoded cluster does not decode: %v", err)
		}
		if got, want := again.Fingerprint(), c.Fingerprint(); got != want {
			t.Fatalf("fingerprint %s after the round trip, %s before", got, want)
		}
	})
}
