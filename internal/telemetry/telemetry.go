// Package telemetry turns live probe measurements into an updated cluster
// specification. A Cluster (internal/cluster) is a static spec: published
// peak throughputs and a fitted network model. The heterogeneous fleets the
// paper targets drift in production — links congest, GPUs throttle or die,
// stragglers appear — and a plan synthesized against the spec silently
// degrades with them.
//
// A Monitor ingests two kinds of samples:
//
//   - LinkSample: a measured bandwidth/latency between two machines (a
//     TWAMP-style probe or an NCCL bandwidth test). Same-machine pairs feed
//     the intra-machine (NVLink/PCIe) estimate, cross-machine pairs the
//     inter-machine fabric estimate — matching the two-level network model
//     plan costs are derived from.
//   - DeviceSample: a virtual device's measured achieved throughput in
//     TFLOPS. A non-positive value marks the device down (dead GPU, evicted
//     node).
//
// Estimates are EWMA-smoothed so one noisy probe cannot trigger a replan
// storm, and windowed so telemetry that stops flowing decays back to the
// spec instead of pinning the cluster to a stale measurement forever.
// Cluster() materializes the current view as a *cluster.Cluster whose
// Fingerprint differs from the spec's exactly when the measurements moved,
// and Distance() quantifies the drift with cluster.Distance — the number the
// serve tier thresholds drift replanning on.
package telemetry

import (
	"fmt"
	"sync"
	"time"

	"hap/internal/cluster"
)

const (
	// alpha is the EWMA smoothing factor: each sample contributes 30%, so
	// three to four consistent samples move the estimate most of the way
	// while a single outlier moves it less than halfway.
	alpha = 0.3
	// window is the staleness horizon: an estimate with no sample newer than
	// this reverts to the spec value.
	window = 5 * time.Minute
)

// LinkSample is one measured link: bandwidth and/or latency between two
// machines. From == To measures the intra-machine interconnect; otherwise
// the inter-machine fabric. Zero-valued fields mean "not measured" and are
// skipped, so bandwidth-only and latency-only probes compose.
type LinkSample struct {
	FromMachine int     `json:"from_machine"`
	ToMachine   int     `json:"to_machine"`
	Bandwidth   float64 `json:"bandwidth,omitempty"` // bytes/s per direction
	Latency     float64 `json:"latency,omitempty"`   // seconds per hop
}

// DeviceSample is one virtual device's measured achieved throughput.
// TFLOPS <= 0 marks the device down; a later positive sample brings it back.
type DeviceSample struct {
	Device int     `json:"device"` // index into the spec cluster's Devices
	TFLOPS float64 `json:"tflops"` // achieved dense TFLOPS of the whole virtual device
}

// Report is one probe batch — the body of POST /v1/telemetry (wrapped with
// the cluster spec, see serve).
type Report struct {
	Links   []LinkSample   `json:"links,omitempty"`
	Devices []DeviceSample `json:"devices,omitempty"`
}

// Config tunes a Monitor.
type Config struct {
	// Now overrides the clock, for tests (nil = time.Now).
	Now func() time.Time
}

// estimate is one EWMA-smoothed, windowed quantity.
type estimate struct {
	val  float64   // current smoothed value; meaningless when n == 0
	last time.Time // when the newest sample landed
	n    uint64    // samples ever ingested
}

// observe folds one sample in. A sample landing after the window expired
// restarts the estimate from the sample — blending a fresh measurement into
// a spec value the window already declared stale would just slow convergence.
func (e *estimate) observe(v float64, now time.Time) {
	if e.n == 0 || now.Sub(e.last) > window {
		e.val = v
	} else {
		e.val = alpha*v + (1-alpha)*e.val
	}
	e.last = now
	e.n++
}

// current returns the estimate, or (spec, false) when no live sample exists
// within the window.
func (e *estimate) current(spec float64, now time.Time) (float64, bool) {
	if e.n == 0 || now.Sub(e.last) > window {
		return spec, false
	}
	return e.val, true
}

// deviceState tracks one virtual device: its throughput estimate and
// whether the last sample declared it down.
type deviceState struct {
	est  estimate
	down bool
}

// Monitor accumulates probe samples against one spec cluster. Safe for
// concurrent use.
type Monitor struct {
	cfg  Config
	spec *cluster.Cluster

	mu       sync.Mutex
	interBW  estimate
	interLat estimate
	intraBW  estimate
	intraLat estimate
	devices  []deviceState // index-aligned with spec.Devices
	machines map[int]bool  // valid machine ids in the spec
	samples  uint64        // samples ingested, all kinds
}

// New builds a Monitor for spec. The spec is the baseline estimates decay
// back to; it must be a plannable cluster (Decode-validated or one of the
// builders').
func New(spec *cluster.Cluster, cfg Config) (*Monitor, error) {
	if spec == nil || len(spec.Devices) == 0 {
		return nil, fmt.Errorf("telemetry: monitor needs a non-empty spec cluster")
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	m := &Monitor{
		cfg:      cfg,
		spec:     spec,
		devices:  make([]deviceState, len(spec.Devices)),
		machines: map[int]bool{},
	}
	for _, d := range spec.Devices {
		m.machines[d.Machine] = true
	}
	return m, nil
}

// Spec returns the baseline cluster the monitor measures against.
func (m *Monitor) Spec() *cluster.Cluster { return m.spec }

// Samples returns how many samples the monitor has ingested.
func (m *Monitor) Samples() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.samples
}

// Ingest folds one probe batch into the estimates. Samples naming unknown
// machines or devices reject the whole batch — a probe wired to the wrong
// cluster spec must fail loudly, not quietly skew another machine's link.
func (m *Monitor) Ingest(r Report) error {
	now := m.cfg.Now()
	m.mu.Lock()
	defer m.mu.Unlock()
	for i, l := range r.Links {
		if !m.machines[l.FromMachine] || !m.machines[l.ToMachine] {
			return fmt.Errorf("telemetry: link sample %d names machine %d-%d not in the spec", i, l.FromMachine, l.ToMachine)
		}
	}
	for i, d := range r.Devices {
		if d.Device < 0 || d.Device >= len(m.devices) {
			return fmt.Errorf("telemetry: device sample %d names device %d of %d", i, d.Device, len(m.devices))
		}
	}
	for _, l := range r.Links {
		bw, lat := &m.interBW, &m.interLat
		if l.FromMachine == l.ToMachine {
			bw, lat = &m.intraBW, &m.intraLat
		}
		if l.Bandwidth > 0 {
			bw.observe(l.Bandwidth, now)
			m.samples++
		}
		if l.Latency > 0 {
			lat.observe(l.Latency, now)
			m.samples++
		}
	}
	for _, d := range r.Devices {
		ds := &m.devices[d.Device]
		if d.TFLOPS <= 0 {
			ds.down = true
			ds.est.last = now
			ds.est.n++
		} else {
			if ds.down {
				// Coming back from down: restart from the fresh sample.
				ds.est.n = 0
				ds.down = false
			}
			ds.est.observe(d.TFLOPS*1e12, now)
		}
		m.samples++
	}
	return nil
}

// Cluster materializes the current view: a copy of the spec with measured
// quantities substituted. Devices marked down within the window are dropped
// (the elastic-training node-loss case); a down mark older than the window
// expires like any estimate, restoring the device. The result can be empty
// when every device is down — callers must treat that as unplannable, not
// synthesize against it.
func (m *Monitor) Cluster() *cluster.Cluster {
	now := m.cfg.Now()
	m.mu.Lock()
	defer m.mu.Unlock()
	out := &cluster.Cluster{Net: m.spec.Net}
	out.Net.InterBW, _ = m.interBW.current(m.spec.Net.InterBW, now)
	out.Net.InterLatency, _ = m.interLat.current(m.spec.Net.InterLatency, now)
	out.Net.IntraBW, _ = m.intraBW.current(m.spec.Net.IntraBW, now)
	out.Net.IntraLatency, _ = m.intraLat.current(m.spec.Net.IntraLatency, now)
	for i, d := range m.spec.Devices {
		ds := &m.devices[i]
		fresh := now.Sub(ds.est.last) <= window
		if ds.down && fresh {
			continue // dropped out
		}
		if ds.est.n > 0 && !ds.down && fresh {
			// Scale the device type so VirtualDevice.Flops() reproduces the
			// measured achieved throughput exactly.
			d.Type.TFLOPS = ds.est.val / 1e12 / (cluster.MFUEfficiency * float64(d.GPUs))
		}
		out.Devices = append(out.Devices, d)
	}
	return out
}

// Distance returns the drift between the spec and the current materialized
// view, per cluster.Distance: 0 with no (or expired) telemetry, +Inf when
// devices dropped out.
func (m *Monitor) Distance() float64 {
	return cluster.Distance(m.spec, m.Cluster())
}
