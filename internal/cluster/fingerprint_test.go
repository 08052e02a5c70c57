package cluster

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// buildMixed returns a fresh two-machine mixed cluster; each call constructs
// it independently so equal fingerprints demonstrate content addressing, not
// pointer identity.
func buildMixed() *Cluster {
	return FromGPUs(DefaultNetwork(), MachineSpec{V100, 2}, MachineSpec{P100, 1})
}

func TestFingerprintIdenticalClusters(t *testing.T) {
	a, b := buildMixed(), buildMixed()
	fa := a.Fingerprint()
	if fa != b.Fingerprint() {
		t.Fatal("independently built identical clusters have different fingerprints")
	}
	// Deterministic across repeated calls (no map-iteration or allocation
	// order may leak into the hash).
	for i := 0; i < 50; i++ {
		if a.Fingerprint() != fa {
			t.Fatal("Fingerprint is not deterministic")
		}
	}
	if len(fa) != 16 {
		t.Errorf("fingerprint %q is not a 64-bit hex hash", fa)
	}
}

func TestFingerprintIgnoresLabels(t *testing.T) {
	a, b := buildMixed(), buildMixed()
	for i := range b.Devices {
		b.Devices[i].Name = "renamed"
		b.Devices[i].Type.Name = "RelabeledGPU"
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("device or type names changed the fingerprint (labels must not key the cache)")
	}
}

func TestFingerprintCoversEveryParameter(t *testing.T) {
	base := buildMixed().Fingerprint()
	perturb := []struct {
		name string
		f    func(*Cluster)
	}{
		{"device count", func(c *Cluster) { c.Devices = c.Devices[:len(c.Devices)-1] }},
		{"gpu count", func(c *Cluster) { c.Devices[0].GPUs = 4 }},
		{"flops", func(c *Cluster) { c.Devices[1].Type.TFLOPS *= 1.5 }},
		{"memory", func(c *Cluster) { c.Devices[1].Type.MemGB += 8 }},
		{"machine placement", func(c *Cluster) { c.Devices[2].Machine = 0 }},
		{"device order", func(c *Cluster) { c.Devices[0], c.Devices[2] = c.Devices[2], c.Devices[0] }},
		{"inter bandwidth", func(c *Cluster) { c.Net.InterBW *= 2 }},
		{"inter latency", func(c *Cluster) { c.Net.InterLatency *= 2 }},
		{"intra bandwidth", func(c *Cluster) { c.Net.IntraBW *= 2 }},
		{"intra latency", func(c *Cluster) { c.Net.IntraLatency *= 2 }},
		{"kernel overhead", func(c *Cluster) { c.Net.KernelOverhead *= 2 }},
		{"broadcast factor", func(c *Cluster) { c.Net.BroadcastFactor = 0.8 }},
	}
	for _, p := range perturb {
		t.Run(p.name, func(t *testing.T) {
			c := buildMixed()
			p.f(c)
			if c.Fingerprint() == base {
				t.Errorf("perturbing %s did not change the fingerprint", p.name)
			}
		})
	}
}

func TestClusterJSONRoundTrip(t *testing.T) {
	c := buildMixed()
	var buf bytes.Buffer
	if err := c.Encode(&buf); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	q, err := Decode(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !reflect.DeepEqual(c, q) {
		t.Errorf("round-trip changed the cluster:\n%v\nvs\n%v", c, q)
	}
	if c.Fingerprint() != q.Fingerprint() {
		t.Error("round-trip changed the fingerprint")
	}
}

func TestClusterJSONRejections(t *testing.T) {
	var buf bytes.Buffer
	if err := buildMixed().Encode(&buf); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	enc := buf.String()
	cases := []struct {
		name    string
		mutate  func(string) string
		wantSub string
	}{
		{"not json", func(s string) string { return "][" }, "decode"},
		{"bad version", func(s string) string { return strings.Replace(s, `"version": 1`, `"version": 9`, 1) }, "version"},
		{"no devices", func(s string) string {
			return `{"version": 1, "net": {"inter_bw": 1, "intra_bw": 1, "broadcast_factor": 0.5}}`
		}, "no devices"},
		{"zero flops", func(s string) string { return strings.Replace(s, `"tflops": 15.7`, `"tflops": 0`, 1) }, "tflops"},
		{"negative memory", func(s string) string { return strings.Replace(s, `"mem_gb": 12`, `"mem_gb": -1`, 1) }, "mem_gb"},
		{"zero gpus", func(s string) string { return strings.Replace(s, `"gpus": 1`, `"gpus": 0`, 1) }, "GPUs"},
		{"negative machine", func(s string) string { return strings.Replace(s, `"machine": 1`, `"machine": -1`, 1) }, "machine"},
		{"zero bandwidth", func(s string) string { return strings.Replace(s, `"intra_bw": 150000000000`, `"intra_bw": 0`, 1) }, "bandwidth"},
		{"negative latency", func(s string) string { return strings.Replace(s, `"inter_latency": 0.00005`, `"inter_latency": -1`, 1) }, "latency"},
		{"broadcast factor above 1", func(s string) string {
			return strings.Replace(s, `"broadcast_factor": 0.55`, `"broadcast_factor": 1.5`, 1)
		}, "broadcast_factor"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mutated := tc.mutate(enc)
			if mutated == enc {
				t.Fatal("mutation did not change the encoding (test is stale)")
			}
			_, err := Decode(strings.NewReader(mutated))
			if err == nil {
				t.Fatal("Decode accepted bad input")
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Errorf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
}

// TestDecodeNegativeZero: the wire spells a zero latency or kernel overhead
// as 0 or -0, and both mean one cluster with one fingerprint — the plan
// cache's key. Fingerprint hashes a float's bits, so Decode must drop the
// sign.
func TestDecodeNegativeZero(t *testing.T) {
	c := buildMixed()
	c.Net.InterLatency, c.Net.IntraLatency, c.Net.KernelOverhead = 0, 0, 0
	var buf bytes.Buffer
	if err := c.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	zero, err := Decode(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"inter_latency", "intra_latency", "kernel_overhead"} {
		spelled := strings.Replace(buf.String(), `"`+field+`": 0`, `"`+field+`": -0`, 1)
		if spelled == buf.String() {
			t.Fatalf("%s: the encoding has no zero to negate (test is stale)", field)
		}
		neg, err := Decode(strings.NewReader(spelled))
		if err != nil {
			t.Fatalf("%s: -0 rejected: %v", field, err)
		}
		if got, want := neg.Fingerprint(), zero.Fingerprint(); got != want {
			t.Errorf("%s: -0 fingerprints %s, 0 fingerprints %s", field, got, want)
		}
	}
}
