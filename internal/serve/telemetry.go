// The telemetry layer of the daemon: live probe ingestion and drift
// replanning. The cache (and the fleet built on it) treats a plan as valid
// forever because its key — graph fingerprint, cluster fingerprint, options —
// is immutable. The cluster the key describes is not: links congest, GPUs
// throttle, machines drop out. This file closes that loop.
//
//	POST /v1/telemetry   {"cluster", "links", "devices"} → drift verdict
//
// Each report feeds a telemetry.Monitor keyed by the spec cluster's
// fingerprint (EWMA-smoothed, windowed — see internal/telemetry). When the
// materialized live view drifts past driftThreshold, every cached entry
// synthesized against that spec has its sharding ratios re-solved on its
// cached program for the drifted cluster, inside the report's request: one
// ratio LP per entry, no search. A re-solve that passes its checks is swapped
// in — new bytes under the same key, so a new entity tag, and a conditional
// fetch stops answering 304 and delivers the new plan; one that fails leaves
// the old plan serving, same key, same ETag. A re-solve that lands on
// byte-identical output is not swapped at all, so warm clients' tags stay
// valid across no-op replans.

package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"slices"
	"sync"

	"hap/internal/balance"
	"hap/internal/cluster"
	"hap/internal/cost"
	"hap/internal/fingerprint"
	"hap/internal/graph"
	"hap/internal/planwire"
	"hap/internal/telemetry"
)

// driftThreshold is the drift past which cached plans replan: 10% relative
// change in any measured quantity. Below it a replan would mostly reshuffle
// within cost-model noise; above it the paper's load-balancing gains are
// being left on the table.
const driftThreshold = 0.10

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
	// ReplansStarted is how many cached entries this report re-solved.
	ReplansStarted int `json:"replans_started"`
	// Samples is the monitor's lifetime ingested-sample count.
	Samples uint64 `json:"samples"`
}

// TelemetryStats is the telemetry slice of Stats.
type TelemetryStats struct {
	// Reports counts accepted probe batches; Rejects counts batches refused
	// (malformed body or cluster, unknown machine or device).
	Reports uint64
	Rejects uint64
	// Replans counts re-solves that swapped a new plan in; ReplansUnchanged
	// counts re-solves whose output was byte-identical to the cached plan (no
	// swap, ETag untouched); ReplanErrors counts re-solves whose ratio LP
	// failed or whose answer failed its checks (the old plan keeps serving).
	Replans          uint64
	ReplansUnchanged uint64
	ReplanErrors     uint64
	// Drift maps each monitored spec fingerprint to its current distance,
	// +Inf capped as in jsonSafeDrift; nil when nothing is monitored.
	Drift map[string]float64
}

// planSource is what a locally synthesized cache entry was planned from, so
// drift in the source cluster can re-solve it without the original request
// and a similar miss can find it as a seed donor (similarity.go). It rides in
// the entry itself (CachedPlan.src): only local synthesis sets one — a
// replicated or warmed-up entry is re-solved on its owner, and the replacement
// re-replicates through the normal path — and an eviction cannot leave one
// behind.
//
// g is the request's decoded graph. Planning and plan reading only read a
// graph, so every re-solve of the entry and every donor bind from it share g.
type planSource struct {
	g *graph.Graph
	// subs are the graph's segment sub-fingerprints (graph.SubFingerprints:
	// one stable hash per content-defined chunk of the node sequence),
	// sorted ascending once here, as graph.SharedSubFingerprints takes them.
	subs []uint64
	// specFP fingerprints the cluster the request named: the drift scan's
	// filter, and with optsSig (the options slice of the cache key) what a
	// donor must share with its target to be worth seeding from.
	specFP  string
	opts    RequestOptions
	optsSig string
	// plannedFP fingerprints the cluster the cached content was actually
	// planned against — the spec at first synthesis, the drifted view after
	// a re-solve. Re-solving is idempotent per view: a second report of the
	// same drift finds plannedFP already current and re-solves nothing. The
	// one field written after the entry is stored; read and written only
	// under telemetryState.mu.
	plannedFP string
}

// newPlanSource builds the record of a plan about to be synthesized for g on
// spec, fingerprinting both once for every later reader.
func newPlanSource(g *graph.Graph, spec *cluster.Cluster, opts RequestOptions) *planSource {
	specFP := spec.Fingerprint()
	subs := graph.SubFingerprints(g)
	slices.Sort(subs)
	return &planSource{
		g:         g,
		subs:      subs,
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
	resp, err := s.ingestTelemetry(body)
	if err != nil {
		t := &s.telemetry
		t.mu.Lock()
		t.rejects++
		t.mu.Unlock()
		s.fail(w, http.StatusBadRequest, CodeBadRequest, "bad request: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

// ingestTelemetry parses one report body, folds it into its monitor and,
// past the drift threshold, re-solves the stale entries. An error means the
// batch was refused, and nothing was ingested.
func (s *Server) ingestTelemetry(body []byte) (TelemetryResponse, error) {
	// The first JSON value is the report; anything after it is ignored.
	var req TelemetryRequest
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
		return TelemetryResponse{}, err
	}
	if len(req.Cluster) == 0 {
		return TelemetryResponse{}, errors.New("cluster is required")
	}
	spec, err := cluster.Decode(bytes.NewReader(req.Cluster))
	if err != nil {
		return TelemetryResponse{}, err
	}
	mon, fp, err := s.monitorFor(spec)
	if err != nil {
		return TelemetryResponse{}, err
	}
	if err := mon.Ingest(telemetry.Report{Links: req.Links, Devices: req.Devices}); err != nil {
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

// resolveRatios is the LP a re-solve runs; tests stand in for it to inject
// faults.
var resolveRatios = balance.Ratios

// replanForSpec re-solves, inline, every locally synthesized entry planned
// from the drifted spec whose content is stale relative to the live view, and
// returns how many it re-solved. Idempotent per view: an entry already
// planned against the current view is skipped. The scan reads a snapshot and
// promotes nothing: a report whose re-solves fail or come back unchanged
// leaves the LRU order as it found it. The re-solves run after the scan,
// outside every lock; two reports racing on one spec may both re-solve an
// entry, and the next report re-solves whichever view is then current.
func (s *Server) replanForSpec(specFP string, mon *telemetry.Monitor) int {
	drifted := mon.Cluster()
	// The live view may be unplannable — every device down, or throttled to
	// zero. Keep serving the old plans; balancing against nothing helps
	// nobody.
	if len(drifted.Devices) == 0 || drifted.TotalFlops() <= 0 {
		return 0
	}
	driftedFP := drifted.Fingerprint()
	type stale struct {
		key string
		old CachedPlan
		// next is old's source as it reads once re-solved, copied under
		// telemetryState.mu: plannedFP is the one field written after its
		// entry is stored.
		next *planSource
	}
	var todo []stale
	t := &s.telemetry
	t.mu.Lock()
	s.store.Range(func(key string, v CachedPlan) bool {
		if src := v.src; src != nil && src.specFP == specFP && src.plannedFP != driftedFP {
			next := *src
			next.plannedFP = driftedFP
			todo = append(todo, stale{key, v, &next})
		}
		return true
	})
	t.mu.Unlock()
	for _, e := range todo {
		v, err := resolve(drifted, e.key, e.old)
		swapped := err == nil && !bytes.Equal(v.Bin, e.old.Bin)
		if swapped {
			// The swap: a new content tag and re-replication, exactly
			// like a fresh synthesis.
			v.src = e.next
			s.storePlan(nil, e.key, v)
		}
		if err != nil {
			s.logger.Warn("replan failed", "key", e.key, "error", err)
		}
		t.mu.Lock()
		switch {
		case err != nil:
			t.replanErrors++
		case swapped:
			t.replans++
		default:
			// Nothing was stored, so mark the old entry's source current
			// here, or the same view would re-solve again.
			t.replansUnchanged++
			e.old.src.plannedFP = driftedFP
		}
		t.mu.Unlock()
	}
	return len(todo)
}

// resolve re-solves the sharding ratios B of one cached entry's program for
// the drifted cluster and re-encodes the plan: the paper's split, where the
// program Q is structure-driven and B, the ratio LP's answer, absorbs the
// performance drift. No search runs, so a dropped device is balanced over
// the survivors. The swap is gated only on checks that hold at any model
// size: the ratios are well-formed, and with the device count unchanged the
// new B models no slower on the drifted cluster than the stale one. The
// program binds to its graph by the graph fingerprint key starts with.
func resolve(drifted *cluster.Cluster, key string, old CachedPlan) (CachedPlan, error) {
	prog, staleB, _, err := planwire.ReadBinary(old.Bin, old.src.g, fingerprint.KeyGraph(key))
	if err != nil {
		return CachedPlan{}, fmt.Errorf("decode: %w", err)
	}
	b, err := resolveRatios(drifted, prog)
	if err != nil {
		return CachedPlan{}, fmt.Errorf("ratio LP: %w", err)
	}
	if err := planwire.ValidateRatios(b, prog.Graph.NumSegments()); err != nil {
		return CachedPlan{}, fmt.Errorf("ratio LP: %w", err)
	}
	model := cost.Extract(drifted, prog)
	c := model.Eval(b)
	if len(staleB[0]) == drifted.M() {
		// A relative hair of slack: an LP vertex tied with the stale B may
		// evaluate a rounding error above it.
		if stale := model.Eval(staleB); c > stale*(1+1e-9) {
			return CachedPlan{}, fmt.Errorf("ratio LP: re-solved cost %g exceeds the stale ratios' %g", c, stale)
		}
	}
	bin, err := planwire.Append(nil, prog, b, c)
	return CachedPlan{Bin: bin}, err
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

// jsonSafeDrift caps +Inf (a dropped device) at math.MaxFloat64: the JSON
// encoder rejects infinities, and "largest representable drift" preserves
// every threshold comparison a consumer might make.
func jsonSafeDrift(d float64) float64 {
	if math.IsInf(d, 1) {
		return math.MaxFloat64
	}
	return d
}
