package telemetry

import (
	"math"
	"testing"
	"time"

	"hap/internal/cluster"
)

// testSpec is a 2-machine, 2-device cluster with distinct device types.
func testSpec() *cluster.Cluster {
	return cluster.FromGPUs(cluster.DefaultNetwork(),
		cluster.MachineSpec{Type: cluster.V100, GPUs: 1},
		cluster.MachineSpec{Type: cluster.P100, GPUs: 1})
}

// fakeClock is an adjustable Now for window tests.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newClock() *fakeClock                   { return &fakeClock{t: time.Unix(1_700_000_000, 0)} }
func monitorAt(t *testing.T, clk *fakeClock) *Monitor {
	t.Helper()
	m, err := New(testSpec(), Config{Now: clk.now})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestMonitorNoTelemetryIsSpec(t *testing.T) {
	m := monitorAt(t, newClock())
	if d := m.Distance(); d != 0 {
		t.Errorf("Distance with no samples = %v, want 0", d)
	}
	if fp, sfp := m.Cluster().Fingerprint(), m.Spec().Fingerprint(); fp != sfp {
		t.Errorf("materialized fingerprint %s != spec %s with no samples", fp, sfp)
	}
}

// TestMonitorLinkDriftEWMA: repeated congestion samples converge the inter
// bandwidth estimate; one sample moves it only partway (smoothing).
func TestMonitorLinkDriftEWMA(t *testing.T) {
	clk := newClock()
	m := monitorAt(t, clk)
	spec := m.Spec().Net.InterBW
	measured := spec / 2

	if err := m.Ingest(Report{Links: []LinkSample{{FromMachine: 0, ToMachine: 1, Bandwidth: measured}}}); err != nil {
		t.Fatal(err)
	}
	// First sample seeds the estimate outright.
	if got := m.Cluster().Net.InterBW; got != measured {
		t.Errorf("after first sample InterBW = %g, want the sample %g", got, measured)
	}
	if d := m.Distance(); math.Abs(d-0.5) > 1e-9 {
		t.Errorf("Distance = %v, want 0.5 (link at half bandwidth)", d)
	}

	// A single recovery sample must NOT snap back to spec: EWMA smooths.
	clk.advance(time.Second)
	if err := m.Ingest(Report{Links: []LinkSample{{FromMachine: 0, ToMachine: 1, Bandwidth: spec}}}); err != nil {
		t.Fatal(err)
	}
	got := m.Cluster().Net.InterBW
	want := alpha*spec + (1-alpha)*measured
	if math.Abs(got-want) > 1e-6 {
		t.Errorf("after recovery sample InterBW = %g, want EWMA blend %g", got, want)
	}

	// Intra-machine samples must not touch the inter estimate.
	clk.advance(time.Second)
	if err := m.Ingest(Report{Links: []LinkSample{{FromMachine: 1, ToMachine: 1, Bandwidth: 1e9}}}); err != nil {
		t.Fatal(err)
	}
	if m.Cluster().Net.InterBW != got {
		t.Error("intra-machine sample moved the inter-machine estimate")
	}
	if m.Cluster().Net.IntraBW != 1e9 {
		t.Errorf("IntraBW = %g, want the intra sample 1e9", m.Cluster().Net.IntraBW)
	}
}

// TestMonitorWindowExpiry: estimates with no fresh samples revert to spec.
func TestMonitorWindowExpiry(t *testing.T) {
	clk := newClock()
	m := monitorAt(t, clk)
	if err := m.Ingest(Report{Links: []LinkSample{{FromMachine: 0, ToMachine: 1, Bandwidth: 1e6, Latency: 1e-3}}}); err != nil {
		t.Fatal(err)
	}
	if m.Distance() == 0 {
		t.Fatal("congestion sample did not register")
	}
	clk.advance(window + time.Second)
	if d := m.Distance(); d != 0 {
		t.Errorf("Distance after window expiry = %v, want 0 (reverted to spec)", d)
	}
	if got, want := m.Cluster().Net.InterBW, m.Spec().Net.InterBW; got != want {
		t.Errorf("InterBW after expiry = %g, want spec %g", got, want)
	}
}

// TestMonitorDeviceThrottle: an achieved-throughput sample rescales the
// device so the materialized Flops() matches the measurement.
func TestMonitorDeviceThrottle(t *testing.T) {
	m := monitorAt(t, newClock())
	specFlops := m.Spec().Devices[0].Flops()
	measuredTFLOPS := specFlops / 1e12 * 0.6 // throttled to 60%

	if err := m.Ingest(Report{Devices: []DeviceSample{{Device: 0, TFLOPS: measuredTFLOPS}}}); err != nil {
		t.Fatal(err)
	}
	c := m.Cluster()
	if got := c.Devices[0].Flops(); math.Abs(got-measuredTFLOPS*1e12) > 1 {
		t.Errorf("materialized Flops = %g, want measured %g", got, measuredTFLOPS*1e12)
	}
	if got := c.Devices[1].Flops(); got != m.Spec().Devices[1].Flops() {
		t.Error("unsampled device's flops moved")
	}
	if d := m.Distance(); math.Abs(d-0.4) > 1e-9 {
		t.Errorf("Distance = %v, want 0.4", d)
	}
	if c.Fingerprint() == m.Spec().Fingerprint() {
		t.Error("drifted cluster fingerprints identical to spec")
	}
}

// TestMonitorDeviceLossAndRecovery: a non-positive sample drops the device
// from the materialized cluster (structural drift, +Inf distance); a
// positive sample brings it back; every device down yields an empty —
// unplannable but guard-safe — cluster.
func TestMonitorDeviceLossAndRecovery(t *testing.T) {
	m := monitorAt(t, newClock())
	if err := m.Ingest(Report{Devices: []DeviceSample{{Device: 1, TFLOPS: 0}}}); err != nil {
		t.Fatal(err)
	}
	c := m.Cluster()
	if len(c.Devices) != 1 {
		t.Fatalf("materialized %d devices after a loss, want 1", len(c.Devices))
	}
	if !math.IsInf(m.Distance(), 1) {
		t.Errorf("Distance after device loss = %v, want +Inf", m.Distance())
	}

	// Recovery restarts the estimate from the fresh sample.
	back := m.Spec().Devices[1].Flops() / 1e12
	if err := m.Ingest(Report{Devices: []DeviceSample{{Device: 1, TFLOPS: back}}}); err != nil {
		t.Fatal(err)
	}
	c = m.Cluster()
	if len(c.Devices) != 2 {
		t.Fatalf("device did not come back: %d devices", len(c.Devices))
	}
	if got := c.Devices[1].Flops(); math.Abs(got-back*1e12) > 1 {
		t.Errorf("recovered device Flops = %g, want %g (restart, not blend with down state)", got, back*1e12)
	}

	// All devices down: empty cluster, and the cluster guards must hold.
	if err := m.Ingest(Report{Devices: []DeviceSample{{Device: 0, TFLOPS: -1}, {Device: 1, TFLOPS: 0}}}); err != nil {
		t.Fatal(err)
	}
	c = m.Cluster()
	if len(c.Devices) != 0 {
		t.Fatalf("want empty cluster with every device down, got %d devices", len(c.Devices))
	}
	if c.Homogeneous() != true || c.SpansMachines() != false || len(c.ProportionalRatios()) != 0 {
		t.Error("empty materialized cluster tripped the accessor guards")
	}
}

// TestMonitorDownMarkExpires: a down mark is telemetry like any other — when
// it goes stale past the window, the device reverts to its spec self.
func TestMonitorDownMarkExpires(t *testing.T) {
	clk := newClock()
	m := monitorAt(t, clk)
	if err := m.Ingest(Report{Devices: []DeviceSample{{Device: 0, TFLOPS: 0}}}); err != nil {
		t.Fatal(err)
	}
	if len(m.Cluster().Devices) != 1 {
		t.Fatal("down mark did not drop the device")
	}
	clk.advance(window + time.Second)
	if len(m.Cluster().Devices) != 2 {
		t.Error("expired down mark still drops the device")
	}
}

func TestMonitorRejectsUnknownTargets(t *testing.T) {
	m := monitorAt(t, newClock())
	if err := m.Ingest(Report{Links: []LinkSample{{FromMachine: 0, ToMachine: 9, Bandwidth: 1}}}); err == nil {
		t.Error("link sample to unknown machine accepted")
	}
	if err := m.Ingest(Report{Devices: []DeviceSample{{Device: 7, TFLOPS: 1}}}); err == nil {
		t.Error("sample for unknown device accepted")
	}
	if m.Samples() != 0 {
		t.Errorf("rejected batches still counted %d samples", m.Samples())
	}
}

func TestMonitorRejectsBadConfig(t *testing.T) {
	if _, err := New(nil, Config{}); err == nil {
		t.Error("nil spec accepted")
	}
	if _, err := New(&cluster.Cluster{}, Config{}); err == nil {
		t.Error("empty spec accepted")
	}
}
