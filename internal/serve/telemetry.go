// The telemetry layer of the daemon: live probe ingestion and background
// replanning. The cache (and the fleet built on it) treats a plan as valid
// forever because its key — graph fingerprint, cluster fingerprint, options —
// is immutable. The cluster the key describes is not: links congest, GPUs
// throttle, machines drop out. This file closes that loop.
//
//	POST /v1/telemetry   {"cluster", "links", "devices"} → drift verdict
//
// Each report feeds a telemetry.Monitor keyed by the spec cluster's
// fingerprint (EWMA-smoothed, windowed — see internal/telemetry). When the
// materialized live view drifts past driftThreshold, every cached
// entry synthesized against that spec is replanned in the background against
// the drifted cluster. The old plan keeps serving — same key, same ETag —
// until the replacement synthesizes AND verifies (hap.Verify executes the
// candidate before the swap); only then does the store swap bump the plan
// version and change the entity tag, at which point a conditional fetch
// stops answering 304 and delivers the new plan. A replan that lands on
// byte-identical output is not swapped at all, so warm clients' tags stay
// valid across no-op replans.

package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sync"

	"hap"
	"hap/internal/cluster"
	"hap/internal/fingerprint"
	"hap/internal/graph"
	"hap/internal/obs"
	"hap/internal/telemetry"
)

// driftThreshold is the drift past which cached plans replan: 10% relative
// change in any measured quantity. Below it a replan would mostly reshuffle
// within cost-model noise; above it the paper's load-balancing gains are
// being left on the table.
const driftThreshold = 0.10

// replanVerifySeed seeds the hap.Verify run that gates every replan swap.
const replanVerifySeed = 7

// TelemetryRequest is the body of POST /v1/telemetry: the spec cluster the
// samples measure (identifying the monitor) plus the probe batch.
type TelemetryRequest struct {
	Cluster json.RawMessage          `json:"cluster"`
	Links   []telemetry.LinkSample   `json:"links,omitempty"`
	Devices []telemetry.DeviceSample `json:"devices,omitempty"`
}

// TelemetryResponse is the POST /v1/telemetry answer: the monitor's verdict
// after folding the batch in.
type TelemetryResponse struct {
	// Cluster is the spec cluster's fingerprint — the monitor key.
	Cluster string `json:"cluster"`
	// Distance is the current drift between spec and live view (see
	// cluster.Distance), capped at math.MaxFloat64 for JSON's sake when a
	// device dropped out (the true distance is +Inf).
	Distance float64 `json:"distance"`
	// Drifted reports whether Distance crossed the replan threshold.
	Drifted bool `json:"drifted"`
	// ReplansStarted is how many cached entries began replanning in the
	// background because of this report.
	ReplansStarted int `json:"replans_started"`
	// Samples is the monitor's lifetime ingested-sample count.
	Samples uint64 `json:"samples"`
}

// TelemetryStats is the telemetry slice of Stats.
type TelemetryStats struct {
	// Reports counts accepted probe batches; Rejects counts batches refused
	// (unknown machine or device, malformed cluster).
	Reports uint64
	Rejects uint64
	// Replans counts background replans that swapped a new plan in;
	// ReplansUnchanged counts replans whose output was byte-identical to the
	// cached plan (no swap, ETag untouched); ReplanErrors counts replans that
	// failed to synthesize or verify (the old plan keeps serving).
	Replans          uint64
	ReplansUnchanged uint64
	ReplanErrors     uint64
	// Drift maps each monitored spec fingerprint to its current distance,
	// +Inf capped as in jsonSafeDrift; nil when nothing is monitored.
	Drift map[string]float64
}

// planSource is what a locally synthesized cache entry was planned from, so
// drift in the source cluster can replan it without the original request and
// a similar miss can find it as a seed donor (similarity.go). It rides in the
// entry itself (CachedPlan.src): only local synthesis sets one — a replicated
// or warmed-up entry replans on its owner, and the replacement re-replicates
// through the normal path — and an eviction cannot leave one behind.
//
// g is the request's decoded graph. Planning and plan reading only read a
// graph, so every replan of the entry and every donor bind from it share g.
type planSource struct {
	g *graph.Graph
	// subs are the graph's segment sub-fingerprints (graph.SubFingerprints:
	// one stable hash per content-defined chunk of the node sequence).
	subs []uint64
	// specFP fingerprints the cluster the request named: the replan scan's
	// filter, and with optsSig (the options slice of the cache key) what a
	// donor must share with its target to be worth seeding from.
	specFP  string
	opts    RequestOptions
	optsSig string
	// plannedFP fingerprints the cluster the cached content was actually
	// planned against — the spec at first synthesis, the drifted view after
	// a replan. Replanning is idempotent per view: a second report of the
	// same drift finds plannedFP already current and starts nothing. The one
	// field written after the entry is stored; read and written only under
	// telemetryState.mu.
	plannedFP string
}

// newPlanSource builds the record of a plan about to be synthesized for g on
// spec, fingerprinting both once for every later reader.
func newPlanSource(g *graph.Graph, spec *cluster.Cluster, opts RequestOptions) *planSource {
	specFP := spec.Fingerprint()
	return &planSource{
		g:         g,
		subs:      graph.SubFingerprints(g),
		specFP:    specFP,
		opts:      opts,
		optsSig:   fingerprint.Options(opts).Sig(),
		plannedFP: specFP,
	}
}

// telemetryState is the Server's telemetry compartment.
type telemetryState struct {
	mu       sync.Mutex
	monitors map[string]*telemetry.Monitor // spec fingerprint → monitor
	replan   map[string]bool               // cache keys replanning right now

	reports          uint64
	rejects          uint64
	replans          uint64
	replansUnchanged uint64
	replanErrors     uint64
}

// monitorFor returns (creating on first use) the monitor for spec.
func (s *Server) monitorFor(spec *cluster.Cluster) (*telemetry.Monitor, string, error) {
	fp := spec.Fingerprint()
	t := &s.telemetry
	t.mu.Lock()
	defer t.mu.Unlock()
	if m, ok := t.monitors[fp]; ok {
		return m, fp, nil
	}
	m, err := telemetry.New(spec, telemetry.Config{})
	if err != nil {
		return nil, fp, err
	}
	t.monitors[fp] = m
	return m, fp, nil
}

// handleTelemetry serves POST /v1/telemetry.
func (s *Server) handleTelemetry(w http.ResponseWriter, r *http.Request) {
	body, ok := s.readBody(w, r)
	if !ok {
		return
	}
	var req TelemetryRequest
	if err := parseBody(body, &req); err != nil {
		s.fail(w, http.StatusBadRequest, CodeBadRequest, "bad request: %v", err)
		return
	}
	if len(req.Cluster) == 0 {
		s.telemetry.addReject()
		s.fail(w, http.StatusBadRequest, CodeBadRequest, "bad request: cluster is required")
		return
	}
	resp, err := s.ingestTelemetry(req)
	if err != nil {
		s.fail(w, http.StatusBadRequest, CodeBadRequest, "bad request: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

// ingestTelemetry folds one report into its monitor and, past the drift
// threshold, kicks off background replans.
func (s *Server) ingestTelemetry(req TelemetryRequest) (TelemetryResponse, error) {
	spec, err := cluster.Decode(bytes.NewReader(req.Cluster))
	if err != nil {
		s.telemetry.addReject()
		return TelemetryResponse{}, err
	}
	mon, fp, err := s.monitorFor(spec)
	if err != nil {
		s.telemetry.addReject()
		return TelemetryResponse{}, err
	}
	if err := mon.Ingest(telemetry.Report{Links: req.Links, Devices: req.Devices}); err != nil {
		s.telemetry.addReject()
		return TelemetryResponse{}, err
	}
	t := &s.telemetry
	t.mu.Lock()
	t.reports++
	t.mu.Unlock()
	dist := mon.Distance()
	resp := TelemetryResponse{
		Cluster:  fp,
		Distance: jsonSafeDrift(dist),
		Drifted:  dist > driftThreshold,
		Samples:  mon.Samples(),
	}
	if resp.Drifted {
		resp.ReplansStarted = s.replanForSpec(fp, mon)
	}
	return resp, nil
}

// replanForSpec scans the store for locally synthesized entries planned from
// the drifted spec and starts a background replan for each one whose content
// is stale relative to the live view. Returns how many replans were started.
// Per-key idempotent: an entry already replanning, or already planned against
// the current view, is skipped. The scan reads a snapshot and promotes
// nothing: a report whose replans are shed or come back unchanged leaves the
// LRU order as it found it.
//
// A replan claims its admission slot before it starts, like any synthesis.
// With every slot busy the entry is left as it is — nothing marked, nothing
// counted — and the next report for the spec finds it still stale.
func (s *Server) replanForSpec(specFP string, mon *telemetry.Monitor) int {
	drifted := mon.Cluster()
	// The live view may be unplannable — every device down, or throttled to
	// zero. Keep serving the old plans; replanning against nothing helps
	// nobody.
	if len(drifted.Devices) == 0 || drifted.TotalFlops() <= 0 {
		return 0
	}
	driftedFP := drifted.Fingerprint()
	t := &s.telemetry
	t.mu.Lock()
	defer t.mu.Unlock()
	started := 0
	s.store.Range(func(key string, old CachedPlan) bool {
		src := old.src
		if src == nil || src.specFP != specFP || src.plannedFP == driftedFP || t.replan[key] {
			return true
		}
		release, ok := s.acquireSynth()
		if !ok {
			return true
		}
		t.replan[key] = true
		started++
		next := *src
		next.plannedFP = driftedFP
		go s.runReplan(key, next, drifted, old, release)
		return true
	})
	return started
}

// runReplan is the goroutine of one background replan. It owns what
// replanForSpec claimed for it — the admission slot and the replanning mark —
// and files the outcome under exactly one counter. src is the entry's source
// as it reads once replanned: plannedFP already names the drifted view.
//
// There is no client request to attach to, so each replan records a trace of
// its own, rooted at a "replan" span over the children a request's miss
// records plus the verify. It lands in the same ring as request traces, so
// /v1/debug/traces answers "what did the background replanner just do" too.
func (s *Server) runReplan(key string, src planSource, drifted *cluster.Cluster, old CachedPlan, release func()) {
	defer release()
	// tr stays nil with tracing off; every span below is then nil and inert.
	var tr *obs.Trace
	if s.traces != nil {
		tr = obs.New("", s.nodeLabel)
	}
	root := tr.Root("replan", 0)
	root.SetAttrStr("key", key)
	defer func() {
		root.End()
		s.collectTrace(tr.Finish())
	}()
	// No deadline here: hapOptions states SynthTimeBudget for replans as it
	// does for requests, and the planner turns it into the search's deadline.
	swapped, err := s.replanOne(context.Background(), root, key, src, drifted, old)
	if err != nil {
		s.logger.Warn("replan failed", "key", key, "trace_id", tr.ID(), "error", err)
	}
	t := &s.telemetry
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.replan, key)
	switch {
	case err != nil:
		t.replanErrors++
	case swapped:
		t.replans++
	default:
		// Nothing was stored, so mark the old entry's source current here,
		// or the same view would replan again.
		t.replansUnchanged++
		old.src.plannedFP = src.plannedFP
	}
}

// replanOne synthesizes one cached entry against the drifted cluster and
// swaps it in only after the result verifies, reporting whether it did. The
// old plan serves throughout: a failed synthesis, a failed verification, or an
// unchanged result all leave the cache exactly as it was.
func (s *Server) replanOne(ctx context.Context, root *obs.Span, key string, src planSource, drifted *cluster.Cluster, old CachedPlan) (swapped bool, err error) {
	// Seed the replan from the pre-drift plan: the graph is unchanged, so the
	// donor replay pins the whole program and the loop's work concentrates on
	// rebalancing the sharding ratios against the drifted cluster — Q is
	// structure-driven, B absorbs the performance drift.
	p, v, err := s.synthesize(ctx, root, src.g, drifted, src.opts, func() donor {
		return donor{key: key, g: src.g, bin: old.Bin, shared: len(src.subs)}
	})
	if err != nil {
		return false, fmt.Errorf("synthesis: %w", err)
	}
	// Verify before swap: the drifted cluster is measurement-derived, and a
	// plan that fails execution-equivalence must never replace one that works.
	vs := root.Child("verify")
	vs.SetAttrStr("kind", "numeric")
	err = hap.Verify(p, drifted.M(), replanVerifySeed)
	vs.End()
	if err != nil {
		return false, fmt.Errorf("verify: %w", err)
	}
	// Same bytes: no swap, no version bump, warm clients' tags stay valid.
	if bytes.Equal(v.Bin, old.Bin) {
		return false, nil
	}
	// The swap: a version bump, a new content tag, and re-replication, exactly
	// like a fresh synthesis.
	v.src = &src
	s.storePlan(root, key, v)
	return true, nil
}

// telemetryStats assembles the Stats telemetry slice. Always non-nil: the
// counters must be visible on a scrape before the first report arrives, or
// dashboards cannot tell "no drift" from "no telemetry wiring".
func (s *Server) telemetryStats() *TelemetryStats {
	t := &s.telemetry
	t.mu.Lock()
	monitors := make(map[string]*telemetry.Monitor, len(t.monitors))
	for fp, m := range t.monitors {
		monitors[fp] = m
	}
	ts := &TelemetryStats{
		Reports:          t.reports,
		Rejects:          t.rejects,
		Replans:          t.replans,
		ReplansUnchanged: t.replansUnchanged,
		ReplanErrors:     t.replanErrors,
	}
	t.mu.Unlock()
	// Distance() synthesizes the live view per monitor; compute outside the
	// telemetry lock so a slow materialization cannot block ingestion.
	if len(monitors) > 0 {
		ts.Drift = make(map[string]float64, len(monitors))
		for fp, m := range monitors {
			ts.Drift[fp] = jsonSafeDrift(m.Distance())
		}
	}
	return ts
}

func (t *telemetryState) addReject() {
	t.mu.Lock()
	t.rejects++
	t.mu.Unlock()
}

// jsonSafeDrift caps +Inf (a dropped device) at math.MaxFloat64: the JSON
// encoder rejects infinities, and "largest representable drift" preserves
// every threshold comparison a consumer might make.
func jsonSafeDrift(d float64) float64 {
	if math.IsInf(d, 1) {
		return math.MaxFloat64
	}
	return d
}
