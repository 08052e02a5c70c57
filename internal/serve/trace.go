// The daemon's tracing compartment: per-request span trees (internal/obs)
// threaded through decode, cache lookup, single-flight, synthesis, encode,
// replication, and fleet proxy hops; the bounded ring behind GET
// /v1/debug/traces (JSON or Chrome trace-event format); the -trace-slow
// structured log line; and the per-phase summaries /metrics derives from
// completed spans.
//
// Cross-node propagation: a fleet forward hop sends X-HAP-Trace:
// "traceID-proxySpanID", the remote node roots its request span under that
// parent, and returns its span records in the X-HAP-Trace-Spans response
// header (forwarded requests only — end clients never see it). The
// proxying node merges them, so a cross-node miss is ONE trace with the
// remote subtree parented under the proxy hop span.

package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"sort"
	"strings"
	"time"

	"hap/internal/fleet"
	"hap/internal/obs"
)

// DefaultTraceRing is how many completed traces the debug ring retains
// when Config.TraceRing is zero.
const DefaultTraceRing = obs.DefaultRingSize

// Fleet-role labels attached to every traced request and slow-log line.
const (
	roleLocal   = "local"   // standalone daemon
	roleOwner   = "owner"   // this node owns the key's ring slot
	roleReplica = "replica" // this node holds a replica of the key
	roleProxy   = "proxy"   // the key is owned elsewhere; misses proxy out
)

// requestTrace carries one traced request through a handler: the trace,
// its root span, and the labels (cache outcome, fleet role) the slow log and
// the trace summary report. It wraps the ResponseWriter so
// the first WriteHeader can export this node's spans to a forwarding peer
// before the status line is committed.
//
// The trace is embedded, and with it the storage of a hit's spans and
// attributes, so a traced hit costs this one allocation and its trace ID;
// a miss's further spans and attributes grow into heap chunks. The debug
// ring keeps the trace, and so this struct, after the request: finish drops
// the ResponseWriter first.
//
// A nil *requestTrace is valid and inert — handlers call its methods
// unconditionally, exactly like a nil obs.Span.
type requestTrace struct {
	tr        obs.Trace
	s         *Server
	w         http.ResponseWriter
	root      *obs.Span
	start     time.Time
	forwarded bool
	wrote     bool
	status    int
	cache     string
	role      string
	idHeader  [1]string // the X-Hap-Trace response header's value
}

// maxClientTraceID bounds an end client's X-HAP-Trace value: the debug ring
// keeps every ID it is sent, so a longer one is replaced by a minted ID.
const maxClientTraceID = 64

// startRequestTrace begins tracing one plan request. An end client's
// X-HAP-Trace value is the trace ID verbatim (a UUID's dashes included);
// only a fleet forward carries the "traceID-parentSpanID" hop form. When tracing is off it
// returns (nil, w) and the handler path is unchanged; when on, the returned
// writer must replace w (it exports spans on fleet-hop responses). The root
// span reaches the miss path as planMiss's argument, not on the request's
// context.
func (s *Server) startRequestTrace(w http.ResponseWriter, r *http.Request) (*requestTrace, http.ResponseWriter) {
	if s.traces == nil {
		return nil, w
	}
	forwarded := r.Header.Get(fleet.ForwardHeader) != ""
	id, parent := r.Header.Get(obs.TraceHeader), uint64(0)
	if forwarded {
		id, parent = obs.ParseTraceHeader(id)
	} else if len(id) > maxClientTraceID {
		id = "" // Init mints a fresh one
	}
	rt := &requestTrace{
		s: s, w: w,
		start:     time.Now(),
		forwarded: forwarded,
		role:      roleLocal,
	}
	rt.tr.Init(id, s.nodeLabel)
	rt.root = rt.tr.Root("request", parent)
	rt.root.SetAttrStr("endpoint", EndpointV1)
	// The trace ID rides on every response — including errors, so a failed
	// request is greppable in the server log by the ID the client holds. The
	// key is canonical and the value slice is the trace's, so this is Set
	// without its allocation.
	rt.idHeader[0] = rt.tr.ID()
	w.Header()[obs.TraceHeader] = rt.idHeader[:]
	return rt, rt
}

// span opens a child of the request's root span (nil-safe).
func (rt *requestTrace) span(name string) *obs.Span {
	if rt == nil {
		return nil
	}
	return rt.root.Child(name)
}

// rootSpan returns the root span, the parent planMiss opens its flight under
// (nil-safe).
func (rt *requestTrace) rootSpan() *obs.Span {
	if rt == nil {
		return nil
	}
	return rt.root
}

func (rt *requestTrace) setCache(outcome string) {
	if rt != nil {
		rt.cache = outcome
	}
}

func (rt *requestTrace) setRole(role string) {
	if rt != nil {
		rt.role = role
	}
}

// forwardHeader renders the X-HAP-Trace value for a proxy hop parented
// under span ("" when tracing is off).
func (rt *requestTrace) forwardHeader(sp *obs.Span) string {
	if rt == nil {
		return ""
	}
	return obs.FormatTraceHeader(rt.tr.ID(), sp.SpanID())
}

// merge folds a peer's X-HAP-Trace-Spans response header into this trace.
func (rt *requestTrace) merge(spansHeader string) {
	if rt == nil || spansHeader == "" {
		return
	}
	rt.tr.Merge(obs.DecodeSpans(spansHeader))
}

// Header, WriteHeader, Write implement http.ResponseWriter. The first
// WriteHeader on a forwarded (fleet-hop) request exports every span this
// node recorded — plus a provisional snapshot of the still-open root — so
// the proxying peer can merge the remote subtree into the client's trace.
func (rt *requestTrace) Header() http.Header { return rt.w.Header() }

func (rt *requestTrace) WriteHeader(code int) {
	if !rt.wrote {
		rt.wrote = true
		rt.status = code
		if rt.forwarded {
			rt.w.Header().Set(obs.SpansHeader, rt.tr.EncodeSpans(rt.root))
		}
	}
	rt.w.WriteHeader(code)
}

func (rt *requestTrace) Write(b []byte) (int, error) {
	if !rt.wrote {
		rt.WriteHeader(http.StatusOK)
	}
	return rt.w.Write(b)
}

// finish closes the request trace: stamps the root with the outcome
// labels, lands the trace in the debug ring, folds phase durations into
// the /metrics summaries, and emits the -trace-slow log line. Deferred by
// every traced handler; nil-safe.
func (rt *requestTrace) finish() {
	if rt == nil {
		return
	}
	status := rt.status
	if status == 0 {
		status = http.StatusOK
	}
	rt.root.SetAttrStr("cache", rt.cache)
	rt.root.SetAttrStr("fleet_role", rt.role)
	rt.root.SetAttrInt("status", int64(status))
	rt.root.End()
	rt.w = nil // the ring keeps rt; it must not keep the connection's writer
	rt.s.collectTrace(&rt.tr)
	rt.s.logSlowRequest(&rt.tr, rt.cache, rt.role, status, time.Since(rt.start))
}

// phaseNames are the /metrics summary labels of
// hap_serve_synth_phase_seconds, index-aligned with Server.phase.
var phaseNames = [...]string{"theory", "beam", "verify"}

// phaseIndex maps a span name to its summary slot (-1 = not a phase span).
// The beam phase aggregates the synthesizer's "search" spans — exact A*
// searches land there too; the label names the common case.
func phaseIndex(name string) int {
	switch name {
	case "theory":
		return 0
	case "search":
		return 1
	case "verify":
		return 2
	}
	return -1
}

// collectTrace lands a completed trace in the debug ring and accumulates
// its phase spans into the /metrics summaries, reading the typed records.
// Only spans recorded by THIS node aggregate — a merged remote subtree is
// the remote node's work and is counted by its own /metrics.
func (s *Server) collectTrace(tr *obs.Trace) {
	s.traces.Add(tr)
	tr.Each(func(name, node string, durUS int64) {
		if node != s.nodeLabel {
			return
		}
		if pi := phaseIndex(name); pi >= 0 {
			s.phase[pi].count.Add(1)
			s.phase[pi].sumNs.Add(durUS * 1000)
		}
	})
}

// logSlowRequest emits the structured slow-request line: every request
// when Config.TraceSlow is negative, requests at or past the threshold
// when positive, nothing when zero.
func (s *Server) logSlowRequest(tr *obs.Trace, cache, role string, status int, elapsed time.Duration) {
	if s.cfg.TraceSlow == 0 {
		return
	}
	if s.cfg.TraceSlow > 0 && elapsed < s.cfg.TraceSlow {
		return
	}
	s.slowRequests.Add(1)
	s.logger.LogAttrs(context.Background(), slog.LevelWarn, "slow request",
		slog.String("trace_id", tr.ID()),
		slog.String("endpoint", EndpointV1),
		slog.String("cache", cache),
		slog.String("fleet_role", role),
		slog.Int("status", status),
		slog.Duration("elapsed", elapsed),
		slog.String("spans", spanBreakdown(tr.Export())),
	)
}

// spanBreakdown renders a trace's spans as "name=dur" pairs for the slow
// log, aggregated by span name (xN for repeats) in first-start order —
// readable in one line even for a deep beam search.
func spanBreakdown(rec *obs.TraceRecord) string {
	spans := make([]obs.SpanRecord, len(rec.Spans))
	copy(spans, rec.Spans)
	sort.Slice(spans, func(i, j int) bool { return spans[i].StartUS < spans[j].StartUS })
	type agg struct {
		durUS int64
		n     int
	}
	var order []string
	by := map[string]*agg{}
	for _, sp := range spans {
		a, ok := by[sp.Name]
		if !ok {
			a = &agg{}
			by[sp.Name] = a
			order = append(order, sp.Name)
		}
		a.durUS += sp.DurUS
		a.n++
	}
	var b strings.Builder
	for i, name := range order {
		if i > 0 {
			b.WriteByte(' ')
		}
		a := by[name]
		fmt.Fprintf(&b, "%s=%s", name, (time.Duration(a.durUS) * time.Microsecond).Round(10*time.Microsecond))
		if a.n > 1 {
			fmt.Fprintf(&b, "x%d", a.n)
		}
	}
	return b.String()
}

// writeJSON renders a JSON debug payload.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// TraceSummary is one entry of the GET /v1/debug/traces listing.
type TraceSummary struct {
	TraceID  string `json:"trace_id"`
	StartUS  int64  `json:"start_us"`
	DurUS    int64  `json:"dur_us"`
	Spans    int    `json:"spans"`
	Endpoint string `json:"endpoint,omitempty"`
	Cache    string `json:"cache,omitempty"`
	Role     string `json:"fleet_role,omitempty"`
	Status   string `json:"status,omitempty"`
}

// handleDebugTraces serves GET /v1/debug/traces: the retained traces,
// newest first, as summaries.
func (s *Server) handleDebugTraces(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.fail(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, "GET required")
		return
	}
	if s.traces == nil {
		s.fail(w, http.StatusNotFound, CodeNotFound, "tracing is disabled (negative trace ring)")
		return
	}
	trs := s.traces.Traces()
	out := struct {
		Traces []TraceSummary `json:"traces"`
	}{Traces: make([]TraceSummary, 0, len(trs))}
	for _, tr := range trs {
		rec := tr.Export()
		root := rec.Root()
		out.Traces = append(out.Traces, TraceSummary{
			TraceID:  rec.TraceID,
			StartUS:  rec.StartUS,
			DurUS:    rec.DurUS,
			Spans:    len(rec.Spans),
			Endpoint: root.Attrs["endpoint"],
			Cache:    root.Attrs["cache"],
			Role:     root.Attrs["fleet_role"],
			Status:   root.Attrs["status"],
		})
	}
	writeJSON(w, out)
}

// handleDebugTrace serves GET /v1/debug/traces/{id}: the full span tree as
// JSON, or — with ?format=chrome — a Chrome trace-event file that opens
// directly in chrome://tracing or Perfetto.
func (s *Server) handleDebugTrace(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.fail(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, "GET required")
		return
	}
	id := strings.TrimPrefix(r.URL.Path, "/v1/debug/traces/")
	if id == "" {
		s.handleDebugTraces(w, r)
		return
	}
	tr, ok := s.traces.Get(id)
	if !ok {
		s.fail(w, http.StatusNotFound, CodeNotFound, "no trace %q in the debug ring", id)
		return
	}
	rec := tr.Export()
	if r.URL.Query().Get("format") == "chrome" {
		w.Header().Set("Content-Type", "application/json")
		obs.WriteChrome(w, rec)
		return
	}
	writeJSON(w, rec)
}
