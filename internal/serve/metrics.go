// The daemon's metrics surface: lock-free latency histograms and the
// GET /metrics handler exposing every counter in the Prometheus text
// exposition format (version 0.0.4), so a scrape target needs no sidecar.

package serve

import (
	"bytes"
	"fmt"
	"net/http"
	"sort"
	"sync/atomic"
	"time"
)

// latencyBuckets are the upper bounds (seconds) of the request-latency
// histogram, spanning sub-millisecond cache hits through minute-scale cold
// syntheses; the implicit final bucket is +Inf.
var latencyBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// histogram is a fixed-bucket latency histogram safe for concurrent
// observation: per-bucket atomic counters plus an atomic nanosecond sum —
// no locks on the request path.
type histogram struct {
	counts []atomic.Uint64 // len(latencyBuckets)+1; last = +Inf overflow
	sumNs  atomic.Int64
}

func newHistogram() *histogram {
	return &histogram{counts: make([]atomic.Uint64, len(latencyBuckets)+1)}
}

func (h *histogram) observe(d time.Duration) {
	sec := d.Seconds()
	i := sort.SearchFloat64s(latencyBuckets, sec) // first bucket with bound >= sec
	h.counts[i].Add(1)
	h.sumNs.Add(int64(d))
}

// since records one request's wall time. Used as
// `defer s.latency.since(time.Now())` at handler entry.
func (h *histogram) since(start time.Time) {
	h.observe(time.Since(start))
}

// histogramSnapshot is one histogram read at a single point in time, so a
// scrape renders buckets, sum, and count from the same capture instead of
// re-reading live atomics per line.
type histogramSnapshot struct {
	counts []uint64
	sumNs  int64
}

func (h *histogram) snapshot() histogramSnapshot {
	snap := histogramSnapshot{counts: make([]uint64, len(h.counts))}
	for i := range h.counts {
		snap.counts[i] = h.counts[i].Load()
	}
	snap.sumNs = h.sumNs.Load()
	return snap
}

// writeHistogram emits one endpoint's histogram series: cumulative
// _bucket{le=...} lines, then _sum and _count, all from one snapshot.
func writeHistogram(b *bytes.Buffer, name, endpoint string, h histogramSnapshot) {
	cum := uint64(0)
	for i, bound := range latencyBuckets {
		cum += h.counts[i]
		fmt.Fprintf(b, "%s_bucket{endpoint=%q,le=%q} %d\n", name, endpoint, formatBound(bound), cum)
	}
	cum += h.counts[len(latencyBuckets)]
	fmt.Fprintf(b, "%s_bucket{endpoint=%q,le=\"+Inf\"} %d\n", name, endpoint, cum)
	fmt.Fprintf(b, "%s_sum{endpoint=%q} %g\n", name, endpoint, float64(h.sumNs)/1e9)
	fmt.Fprintf(b, "%s_count{endpoint=%q} %d\n", name, endpoint, cum)
}

// formatBound renders a bucket bound the way Prometheus conventionally
// writes it ("0.005", "1", "30").
func formatBound(v float64) string {
	return fmt.Sprintf("%g", v)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	// Snapshot everything up front — counters, histograms, phase summaries —
	// so one scrape renders a single capture moment. Without this, a
	// drift re-solve (or any concurrent request) landing between the
	// Stats() call and a later live histogram read could make the exposition
	// disagree with itself (e.g. syntheses_total without the matching
	// phase-summary growth).
	st := s.Stats()
	latency := s.latency.snapshot()
	var phases [len(phaseNames)]struct {
		count uint64
		sumNs int64
	}
	for i := range s.phase {
		phases[i].count = s.phase[i].count.Load()
		phases[i].sumNs = s.phase[i].sumNs.Load()
	}
	slow := s.slowRequests.Load()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	var b bytes.Buffer
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v float64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
	}
	fmt.Fprintf(&b, "# HELP hap_serve_request_seconds Request wall time by wire endpoint, including rejected requests.\n# TYPE hap_serve_request_seconds histogram\n")
	writeHistogram(&b, "hap_serve_request_seconds", EndpointV1, latency)
	// Synthesis-phase summaries, fed by completed trace spans recorded on
	// this node (fleet-merged remote spans are excluded — each node counts
	// only its own work).
	fmt.Fprintf(&b, "# HELP hap_serve_synth_phase_seconds Wall time in synthesis phases on this node, from completed trace spans.\n# TYPE hap_serve_synth_phase_seconds summary\n")
	for i, name := range phaseNames {
		fmt.Fprintf(&b, "hap_serve_synth_phase_seconds_sum{phase=%q} %g\n", name, float64(phases[i].sumNs)/1e9)
		fmt.Fprintf(&b, "hap_serve_synth_phase_seconds_count{phase=%q} %d\n", name, phases[i].count)
	}
	counter("hap_serve_slow_requests_total", "Requests at or past the -trace-slow threshold.", slow)
	counter("hap_serve_cache_hits_total", "Requests served straight from the plan cache.", st.CacheHits)
	counter("hap_serve_cache_misses_total", "Requests that required (or joined) a synthesis.", st.CacheMisses)
	counter("hap_serve_syntheses_total", "Plans actually synthesized.", st.Syntheses)
	counter("hap_serve_synth_incremental_total", "Syntheses seeded from a similar cached plan (incremental synthesis).", st.SynthIncremental)
	counter("hap_serve_flight_shared_total", "Cache misses that joined an in-flight synthesis.", st.FlightShared)
	counter("hap_serve_admission_shed_total", "Cache misses shed with 429 by the synthesis admission gate.", st.AdmissionShed)
	gauge("hap_serve_inflight_synth", "Local syntheses currently executing.", float64(st.InflightSynth))
	counter("hap_serve_errors_total", "Requests answered with an error status.", st.Errors)
	counter("hap_serve_cache_evictions_total", "Plans evicted by the LRU caps or past the TTL.", st.CacheEvictions)
	gauge("hap_serve_cache_entries", "Plans currently cached.", float64(st.CacheEntries))
	gauge("hap_serve_cache_bytes", "Bytes of plans currently cached.", float64(st.CacheBytes))
	gauge("hap_serve_cache_restored", "Plans reloaded from the cache directory on boot.", float64(st.CacheRestored))
	// Telemetry and replanning series are always exposed — a dashboard must
	// distinguish "no drift" from "telemetry not wired up", so the counters
	// exist from the first scrape (reports_total 0 = no telemetry yet).
	if ts := st.Telemetry; ts != nil {
		counter("hap_serve_telemetry_reports_total", "Probe batches accepted by /v1/telemetry.", ts.Reports)
		counter("hap_serve_telemetry_rejects_total", "Probe batches rejected (malformed body or cluster, unknown machine or device).", ts.Rejects)
		counter("hap_serve_replans_total", "Drift re-solves of a cached plan's sharding ratios that swapped a new plan into the cache.", ts.Replans)
		counter("hap_serve_replans_unchanged_total", "Drift re-solves whose output matched the cached plan byte-for-byte (no swap).", ts.ReplansUnchanged)
		counter("hap_serve_replan_errors_total", "Drift re-solves whose ratio LP failed or whose answer failed its checks (no swap).", ts.ReplanErrors)
		// Per-cluster drift, sorted by fingerprint for a stable exposition.
		fmt.Fprintf(&b, "# HELP hap_serve_cluster_drift Current drift between a monitored spec cluster and its telemetry view.\n# TYPE hap_serve_cluster_drift gauge\n")
		fps := make([]string, 0, len(ts.Drift))
		for fp := range ts.Drift {
			fps = append(fps, fp)
		}
		sort.Strings(fps)
		for _, fp := range fps {
			fmt.Fprintf(&b, "hap_serve_cluster_drift{cluster=%q} %g\n", fp, ts.Drift[fp])
		}
	}
	if fs := st.Fleet; fs != nil {
		gauge("hap_serve_fleet_peers", "Current fleet members, self included.", float64(len(fs.Peers)))
		gauge("hap_serve_fleet_peers_down", "Fleet peers currently failing health checks.", float64(fs.PeersDown))
		counter("hap_serve_fleet_membership_reloads_total", "Peer-list reloads that changed the ring.", fs.MembershipReloads)
		counter("hap_serve_fleet_proxied_total", "Cache misses answered by proxying to a peer.", fs.Proxied)
		counter("hap_serve_fleet_proxy_errors_total", "Failed proxy attempts to peers.", fs.ProxyErrors)
		counter("hap_serve_fleet_local_fallbacks_total", "Misses owned elsewhere synthesized locally because every peer was unreachable.", fs.LocalFallbacks)
		counter("hap_serve_fleet_forwarded_served_total", "Requests served on behalf of forwarding peers.", fs.ForwardedServed)
		counter("hap_serve_fleet_replicated_out_total", "Entries pushed to ring successors.", fs.ReplicatedOut)
		counter("hap_serve_fleet_replicate_errors_total", "Failed replication pushes.", fs.ReplicateErrors)
		counter("hap_serve_fleet_replicated_in_total", "Replicated entries accepted from peers.", fs.ReplicatedIn)
		counter("hap_serve_fleet_warmup_entries_total", "Entries received by warm-up streaming.", fs.WarmupEntries)
	}
	w.Write(b.Bytes())
}
