// Package serve implements the hap-serve plan-cache daemon: an HTTP service
// that accepts a (graph, cluster) pair in the JSON wire formats, synthesizes
// a distributed plan with the full HAP pipeline, and returns the encoded
// plan — memoizing results in a concurrency-safe, content-addressed LRU
// cache keyed by (graph fingerprint, cluster fingerprint, options).
//
// Synthesis is the expensive step (seconds to minutes at model scale), so
// the cache is the point of the daemon: a fleet of trainers asking for the
// same (model, cluster) pair pays for one synthesis. Concurrent identical
// requests are single-flighted — they block on the one in-flight synthesis
// instead of each starting their own — and the synthesis runs under a
// reference-counted flight context: it is cancelled when the last interested
// client disconnects, never by one impatient client among many.
//
// Every plan synthesized here comes from a request's miss, through planMiss:
// synthesize (the planner call, under an admission slot), then storePlan
// (store the plan with what it was planned from, replicate). A drift report
// re-solves a cached plan's sharding ratios inline and swaps the result in
// through the same storePlan (telemetry.go). DESIGN.md, "The miss path", has
// the order. With a fleet.Fleet configured (fleet.go), the daemon is one node
// of a sharded, replicated cache tier: request fingerprints are
// consistent-hash routed to an owner peer, misses proxy to the owner (whose
// single-flight group makes a fleet-wide thundering herd synthesize exactly
// once), filled entries replicate to ring successors, and a joining node
// warms up by streaming a peer's entries.
//
// Wire protocol v2 (see DESIGN.md for the full specification):
//
//	POST /v1/synthesize     {"graph", "cluster", "options"} → plan
//	POST /v1/synthesize     {"key"} → plan, or a need_body answer
//	GET  /v1/fleet/entries  NDJSON stream of cached entries (warm-up)
//	POST /v1/fleet/entries  accept one replicated entry
//	GET  /healthz           liveness + protocol version, JSON
//	GET  /metrics           counters + latency histograms, Prometheus text
//
// Errors are answered with a structured JSON envelope {"code", "message"},
// and every plan answer is the binary plan payload (hap.WriteProgramBinary,
// Content-Type application/x-hap-plan), whatever the Accept header says — the
// one encoding the daemon stores, persists and replicates. A caller with K
// clusters for one graph makes K requests: each is a key-first request on its
// own, so a hit uploads nothing and a miss routes to its own owner.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"hap"
	"hap/internal/cluster"
	"hap/internal/fingerprint"
	"hap/internal/fleet"
	"hap/internal/graph"
	"hap/internal/obs"
	"hap/internal/telemetry"
	"hap/internal/wirejson"
)

// ProtocolVersion names the serve wire protocol implemented by this build,
// reported by /healthz.
const ProtocolVersion = "v2"

// BinaryPlanContentType is the media type of the binary plan payload, the
// Content-Type of every plan answer.
const BinaryPlanContentType = "application/x-hap-plan"

// PlanVersionHeader carries the served plan's monotonic version (see
// CachedPlan.Version) on every plan response, including 304s.
const PlanVersionHeader = "X-HAP-Plan-Version"

// SeedDistanceHeader carries the donor's normalized structural distance on a
// miss response whose synthesis was seeded from a similar cached plan
// (incremental synthesis). Absent on cache hits and cold syntheses.
const SeedDistanceHeader = "X-HAP-Seed-Distance"

// EndpointV1 is the endpoint label of /v1/synthesize on the latency
// histogram, request traces and the slow log.
const EndpointV1 = "v1"

// Defaults for Config zero values.
const (
	DefaultMaxCacheEntries = 1024
	// DefaultMaxRequestBytes caps the accepted request body size.
	DefaultMaxRequestBytes = 64 << 20
	// DefaultSynthTimeBudget bounds one request's synthesis wall-clock time
	// (the whole Q↔B loop, not just one search) so a single adversarial
	// request cannot hold a serve worker for minutes — the synthesizer's
	// expansion limits bound memory, not time. An expired budget serves the
	// best plan the loop found, or fails the request when none completed.
	DefaultSynthTimeBudget = 60 * time.Second
)

// maxCacheBytes caps the total bytes of cached plans. A model-scale plan is
// about 1–3 KiB of binary payload, so the entry cap binds first.
const maxCacheBytes = 256 << 20

// shedRetryAfter is the Retry-After hint, in seconds, on admission-shed 429
// responses: long enough for a synthesis slot to plausibly free, short enough
// that a warm retry is cheap.
const shedRetryAfter = "1"

// Config tunes a Server.
type Config struct {
	// MaxCacheEntries caps the number of cached plans (0 = default).
	MaxCacheEntries int
	// SynthTimeBudget bounds each request's synthesis wall-clock time
	// (0 = DefaultSynthTimeBudget; negative = unlimited).
	SynthTimeBudget time.Duration
	// SynthWorkers is ignored: every synthesis runs on one goroutine.
	//
	// Deprecated: a no-op kept only because bench/ still sets it; ROADMAP O
	// deletes it with bench/'s calls.
	SynthWorkers int
	// CacheDir enables write-through disk persistence of the plan cache:
	// every cached plan is also written to a content-addressed file under
	// this directory, evictions delete their file, and a restarting server
	// reloads the directory into the in-memory cache in mtime (LRU) order
	// ("" = memory only).
	CacheDir string
	// CacheTTL expires cached plans (and their persisted files) older than
	// this age: files past the TTL are deleted instead of restored on boot,
	// and an entry found past it when the store is read — a lookup, a
	// donor, warm-up or drift scan, a /metrics scrape — is evicted and its
	// file deleted (0 = never expire).
	CacheTTL time.Duration
	// MaxInflightSynth bounds the number of concurrently executing local
	// syntheses (0 = unlimited). When every slot is busy, cache misses that
	// would start a new synthesis are shed with 429 Too Many Requests and a
	// Retry-After header instead of queueing — cache hits are always served
	// (the store lookup precedes the gate), and misses that can join an
	// already-running flight for the same key still join it. The gate bounds
	// the daemon's memory and CPU under a miss storm: plan search is the
	// expensive step, and N unbounded concurrent searches is the only way
	// this process OOMs.
	MaxInflightSynth int
	// Fleet, when non-nil, makes this daemon one node of a sharded,
	// replicated plan-cache fleet (see fleet.go and internal/fleet).
	Fleet *fleet.Fleet
	// TraceRing caps the bounded ring of completed request traces served by
	// GET /v1/debug/traces (0 = DefaultTraceRing; negative = tracing off,
	// the request path pays nothing).
	TraceRing int
	// TraceSlow logs any traced request slower than this with its full span
	// breakdown as a structured slog line (0 = off; negative = log every
	// request, the firehose mode tests and debugging sessions use).
	TraceSlow time.Duration
	// Logger receives the daemon's structured log lines (nil = slog.Default).
	Logger *slog.Logger
	// Synthesize overrides the planner, for tests. Nil means a hap.Planner
	// driven by the request context.
	Synthesize func(context.Context, *graph.Graph, *cluster.Cluster, hap.Options) (*hap.Plan, error)

	// maxRequestBytes lowers the body cap below DefaultMaxRequestBytes, for
	// tests (0 = default).
	maxRequestBytes int64
}

// ErrorEnvelope is the structured error body of every endpoint.
type ErrorEnvelope struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// Error codes of the envelopes.
const (
	CodeBadRequest       = "bad_request"
	CodeTooLarge         = "request_too_large"
	CodeMethodNotAllowed = "method_not_allowed"
	CodeSynthesisFailed  = "synthesis_failed"
	CodeCanceled         = "canceled"
	CodeNotFound         = "not_found"
	CodeOverloaded       = "overloaded"
)

// NeedBody is the X-HAP-Cache value (and envelope code) of the answer to a
// key-only request whose key is not in this node's store: not an error — the
// sender repeats the request with graph and cluster, and that request is the
// one counted as a miss.
const NeedBody = "need_body"

var needBodyAnswer = []byte(`{"code":"need_body","message":"no plan under this key here: resend with graph and cluster"}` + "\n")

// RequestOptions mirrors hap.Options on the wire. The retired "optimize",
// "exact_search" and "max_iterations" fields read as unknown members: they
// are skipped, and the request keys and plans like one without them.
type RequestOptions struct {
	Segments int `json:"segments,omitempty"`
}

// Stats is an in-process snapshot of the server counters. GET /metrics
// renders it; over HTTP that is the only place the numbers are read.
type Stats struct {
	CacheHits        uint64 // served straight from cache
	CacheMisses      uint64 // required (or joined) a synthesis
	Syntheses        uint64 // plans actually synthesized
	SynthIncremental uint64 // syntheses seeded from a donor plan (incremental synthesis)
	FlightShared     uint64 // misses that joined an in-flight synthesis
	// AdmissionShed counts misses shed with 429 by the synthesis admission
	// gate; InflightSynth is the number of currently executing local
	// syntheses.
	AdmissionShed  uint64
	InflightSynth  int64
	Errors         uint64 // requests answered with an error status
	CacheEntries   int    // plans currently cached
	CacheBytes     int64  // bytes currently cached
	CacheEvictions uint64 // plans evicted by the LRU caps or past the TTL
	CacheRestored  int    // plans reloaded from CacheDir on boot
	// Fleet reports the fleet-layer counters; nil on a standalone daemon.
	Fleet *FleetStats
	// Telemetry reports the probe-ingestion and replanning counters; always
	// present so "no telemetry yet" is observable.
	Telemetry *TelemetryStats
}

// Server is the plan-cache daemon. Create with New, mount via Handler.
type Server struct {
	cfg    Config
	store  *store
	flight flightGroup

	latency *histogram // /v1/synthesize request latency

	hits         atomic.Uint64
	misses       atomic.Uint64
	syntheses    atomic.Uint64
	flightShared atomic.Uint64
	errors       atomic.Uint64

	// synthSem is the admission gate: a slot per permitted concurrent local
	// synthesis, nil when unlimited. admissionShed counts misses turned away
	// at the gate; inflightSynth tracks currently executing syntheses (the
	// /metrics gauge) whether or not a cap is configured.
	synthSem      chan struct{}
	admissionShed atomic.Uint64
	inflightSynth atomic.Int64

	synthIncremental atomic.Uint64 // seeded syntheses

	fleetProxied         atomic.Uint64 // misses answered by proxying to a peer
	fleetProxyErrors     atomic.Uint64 // failed proxy attempts (peer marked down)
	fleetLocalFallbacks  atomic.Uint64 // owned-elsewhere misses synthesized locally (all peers down)
	fleetForwardedServed atomic.Uint64 // requests served on behalf of a forwarding peer
	fleetReplicatedOut   atomic.Uint64 // entries pushed to ring successors
	fleetReplicateErrors atomic.Uint64 // failed replication pushes
	fleetReplicatedIn    atomic.Uint64 // entries accepted from peers
	fleetWarmupEntries   atomic.Uint64 // entries received by warm-up streaming

	// traces is the debug ring of completed request traces; nil = tracing
	// off. logger receives structured log lines; nodeLabel stamps every
	// span with this node's fleet URL ("" standalone); phase accumulates
	// the per-phase duration summaries /metrics exposes; slowRequests
	// counts requests past the TraceSlow threshold.
	traces    *obs.Collector
	logger    *slog.Logger
	nodeLabel string
	phase     [len(phaseNames)]struct {
		count atomic.Uint64
		sumNs atomic.Int64
	}
	slowRequests atomic.Uint64

	// telemetry is the probe-ingestion and drift re-solving compartment
	// (telemetry.go).
	telemetry telemetryState
}

// New returns a Server with zero Config values filled from the defaults.
// When cfg.CacheDir is set, previously persisted plans are restored into the
// cache before the first request (oldest mtime first, so LRU recency
// survives the restart). New starts no goroutine.
func New(cfg Config) *Server {
	if cfg.MaxCacheEntries <= 0 {
		cfg.MaxCacheEntries = DefaultMaxCacheEntries
	}
	if cfg.maxRequestBytes <= 0 {
		cfg.maxRequestBytes = DefaultMaxRequestBytes
	}
	if cfg.SynthTimeBudget == 0 {
		cfg.SynthTimeBudget = DefaultSynthTimeBudget
	}
	if cfg.Synthesize == nil {
		cfg.Synthesize = func(ctx context.Context, g *graph.Graph, c *cluster.Cluster, opt hap.Options) (*hap.Plan, error) {
			return hap.NewPlanner(c, hap.WithOptions(opt)).Plan(ctx, g)
		}
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.Default()
	}
	var persist *diskStore
	if cfg.CacheDir != "" {
		store, err := newDiskStore(cfg.CacheDir)
		if err != nil {
			// Loudly degrade: the daemon keeps serving from memory, but the
			// operator can see persistence is off instead of discovering it
			// at the next restart.
			logger.Warn("persistence disabled", "dir", cfg.CacheDir, "error", err)
		} else {
			persist = store
		}
	}
	s := &Server{
		cfg:     cfg,
		store:   newStore(cfg.MaxCacheEntries, maxCacheBytes, persist, cfg.CacheTTL),
		logger:  logger,
		latency: newHistogram(),
		telemetry: telemetryState{
			monitors: map[string]*telemetry.Monitor{},
		},
	}
	if cfg.MaxInflightSynth > 0 {
		s.synthSem = make(chan struct{}, cfg.MaxInflightSynth)
	}
	// Tracing is on by default. Measured with go1.24, a key-only hit records
	// 3 spans in 21 allocations; a miss records one span per phase (per Q↔B
	// iteration for the search, never per beam level: the search span sums
	// the levels), 16 spans in ~170 allocations over the untraced miss, and a
	// forwarded one sends ~3.4 KiB of spans back to the proxying peer
	// (TestMissTraceCostIndependentOfSearchDepth). A negative TraceRing turns
	// it off entirely.
	if cfg.TraceRing >= 0 {
		s.traces = obs.NewCollector(cfg.TraceRing)
	}
	if f := cfg.Fleet; f != nil {
		s.nodeLabel = f.Self()
	}
	return s
}

// Close does nothing: the server runs no background work.
//
// Deprecated: a no-op kept only because bench/ still calls it; ROADMAP O
// deletes it with bench/'s calls.
func (s *Server) Close() {}

// Handler returns the daemon's HTTP routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/synthesize", s.handleSynthesize)
	mux.HandleFunc("/v1/telemetry", s.handleTelemetry)
	mux.HandleFunc(fleet.EntriesPath, s.handleFleetEntries)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	// Both forms registered explicitly: the bare path lists, the trailing-
	// slash form fetches one trace by ID (parsed manually — this module's
	// go directive predates ServeMux path wildcards).
	mux.HandleFunc("/v1/debug/traces", s.handleDebugTraces)
	mux.HandleFunc("/v1/debug/traces/", s.handleDebugTrace)
	return mux
}

// Stats returns a snapshot of the server counters.
func (s *Server) Stats() Stats {
	entries, size, evictions := s.store.counts()
	return Stats{
		CacheHits:        s.hits.Load(),
		CacheMisses:      s.misses.Load(),
		Syntheses:        s.syntheses.Load(),
		SynthIncremental: s.synthIncremental.Load(),
		FlightShared:     s.flightShared.Load(),
		AdmissionShed:    s.admissionShed.Load(),
		InflightSynth:    s.inflightSynth.Load(),
		Errors:           s.errors.Load(),
		CacheEntries:     entries,
		CacheBytes:       size,
		CacheEvictions:   evictions,
		CacheRestored:    s.store.restored,
		Fleet:            s.fleetStats(),
		Telemetry:        s.telemetryStats(),
	}
}

// cacheKey is the content address of a plan: what the graph computes, what
// the cluster can do, and how the planner was asked to run. Names and other
// labels do not participate (see graph.Fingerprint, Cluster.Fingerprint).
// The same string is the fleet routing fingerprint: every node derives the
// same key from the same request, so ring ownership is request-determined —
// and so does a key-first client, through the same fingerprint.PlanKey.
func cacheKey(g *graph.Graph, c *cluster.Cluster, opt RequestOptions) string {
	return fingerprint.PlanKey(graph.Fingerprint(g), c.Fingerprint(), fingerprint.Options(opt))
}

// fail answers an error with the structured JSON envelope.
func (s *Server) fail(w http.ResponseWriter, status int, code string, format string, args ...any) {
	s.errors.Add(1)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(ErrorEnvelope{Code: code, Message: fmt.Sprintf(format, args...)})
}

// errOverloaded is the admission gate's refusal: every synthesis slot is
// busy and this miss would have started a new search.
var errOverloaded = errors.New("synthesis capacity exhausted")

// acquireSynth claims a synthesis slot without blocking — the gate every
// planner call passes. On success the returned release must be called when
// the synthesis finishes; the caller that refuses a request counts the shed.
// With no cap configured the gate always admits (and still tracks the
// inflight gauge).
func (s *Server) acquireSynth() (release func(), ok bool) {
	if s.synthSem != nil {
		select {
		case s.synthSem <- struct{}{}:
		default:
			return nil, false
		}
	}
	s.inflightSynth.Add(1)
	return func() {
		s.inflightSynth.Add(-1)
		if s.synthSem != nil {
			<-s.synthSem
		}
	}, true
}

// failSynthesis answers a request whose synthesis did not produce a plan:
// 429 with the Retry-After hint when the admission gate refused it, 499 when
// the request context was cancelled (the client went away; the nginx
// convention, for the log's benefit — nobody reads the body), else 422.
func (s *Server) failSynthesis(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, errOverloaded):
		w.Header().Set("Retry-After", shedRetryAfter)
		s.fail(w, http.StatusTooManyRequests, CodeOverloaded, "overloaded: %v", err)
	case errors.Is(err, context.Canceled):
		s.fail(w, 499, CodeCanceled, "synthesis failed: %v", err)
	default:
		s.fail(w, http.StatusUnprocessableEntity, CodeSynthesisFailed, "synthesis failed: %v", err)
	}
}

// presizeBodyCap caps how much of a declared Content-Length is allocated
// before any byte arrives; larger bodies grow the buffer as they are read.
const presizeBodyCap = 1 << 20

// readBody reads the size-capped body of a POST whole: /v1/synthesize decodes
// it in place (and proxies the same bytes on a miss owned by a peer), and the
// fleet entry intake decodes it as one record. Failures are answered on w;
// the bool reports success.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	if r.Method != http.MethodPost {
		s.fail(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, "POST required")
		return nil, false
	}
	// One allocation for a body that declares its length.
	size := min(max(r.ContentLength, 0), presizeBodyCap, s.cfg.maxRequestBytes)
	buf := bytes.NewBuffer(make([]byte, 0, size+bytes.MinRead))
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, s.cfg.maxRequestBytes)); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.fail(w, http.StatusRequestEntityTooLarge, CodeTooLarge, "request body exceeds %d bytes", tooBig.Limit)
			return nil, false
		}
		s.fail(w, http.StatusBadRequest, CodeBadRequest, "bad request: %v", err)
		return nil, false
	}
	return buf.Bytes(), true
}

// planInput is a decoded full-body request: what a miss plans from.
type planInput struct {
	opts RequestOptions
	g    *graph.Graph
	c    *cluster.Cluster
}

// requestMembers are the members of a /v1/synthesize body.
var requestMembers = []string{"graph", "cluster", "options", "key"}

// decodeRequest reads the body of POST /v1/synthesize, {"graph", "cluster",
// "options", "key"}, in one pass on the tokenizer the graph reader is built
// on (package wirejson: the spellings it takes and the three it refuses).
// The graph is decoded where it lies (graph.DecodeFrom), the cluster's span
// goes to cluster.Decode, and negative segments are refused on sight.
//
// A body with a key and neither graph nor cluster (each absent or null) is
// the key-only form: the sender derived the key with fingerprint.PlanKey
// from its own graph, cluster and options, and asks for the plan without
// uploading anything. It yields the key and a nil input, and decodes
// nothing else. Any other body must carry both payloads; it yields them
// decoded and validated, and the key they derive — a key riding along is
// ignored.
func decodeRequest(body []byte) (key string, in *planInput, err error) {
	r := wirejson.Reader{Data: body}
	var (
		g           *graph.Graph
		clusterJSON []byte
		opts        RequestOptions
		sentKey     []byte
	)
	r.Object(requestMembers, func(m int) bool {
		switch requestMembers[m] {
		case "graph":
			g, _ = graph.DecodeFrom(&r)
		case "cluster":
			start := r.I
			if r.Skip() {
				clusterJSON = body[start:r.I]
			}
		case "options":
			r.Object([]string{"segments"}, func(int) bool {
				opts.Segments, _ = r.Int()
				return r.Err == nil
			})
			if r.Err != nil {
				r.Err = fmt.Errorf("options: %w", r.Err)
			} else if opts.Segments < 0 {
				// A negative count means nothing to the planner and would only
				// mint a second key for the unsegmented plan.
				r.Fail(fmt.Errorf("options: segments (%d) must not be negative", opts.Segments))
			}
		default: // "key"
			sentKey, _ = r.Str()
		}
		return r.Err == nil
	})
	switch {
	case r.Err != nil:
		return "", nil, r.Err
	case g == nil && clusterJSON == nil && len(sentKey) > 0:
		return string(sentKey), nil, nil
	case g == nil || clusterJSON == nil:
		return "", nil, errors.New("graph and cluster are required")
	}
	c, err := cluster.Decode(bytes.NewReader(clusterJSON))
	if err != nil {
		return "", nil, err
	}
	return cacheKey(g, c, opts), &planInput{opts: opts, g: g, c: c}, nil
}

// handleSynthesize serves POST /v1/synthesize: decode → store → need_body →
// proxy → planMiss.
//
// The latency histogram is observed at entry, so every request, rejects
// (bad method, bad body) included, contributes one sample: its count is the
// request count.
//
// A key-only body skips the decode: its key is the lookup. A full body is
// decoded once, and its graph and cluster serve a miss. A key-only request
// that misses is told so (need_body, counted neither as a miss nor as an
// error — the full request that follows is the miss).
func (s *Server) handleSynthesize(w http.ResponseWriter, r *http.Request) {
	defer s.latency.since(time.Now())
	rt, r, w := s.startRequestTrace(w, r)
	defer rt.finish()

	ds := rt.span("decode")
	body, ok := s.readBody(w, r)
	if !ok {
		ds.End()
		return
	}
	key, in, err := decodeRequest(body)
	if in != nil {
		ds.SetAttrInt("graph_nodes", int64(in.g.NumNodes()))
	}
	ds.End()
	if err != nil {
		s.fail(w, http.StatusBadRequest, CodeBadRequest, "bad request: %v", err)
		return
	}

	rt.setRole(s.fleetRole(key))
	forwarded := r.Header.Get(fleet.ForwardHeader) != ""
	if forwarded {
		s.fleetForwardedServed.Add(1)
	}
	cs := rt.span("cache_lookup")
	plan, ok := s.store.Get(key)
	cs.End()
	if ok {
		s.hits.Add(1)
		rt.setCache("hit")
		writePlan(w, r, plan, "hit")
		return
	}
	if in == nil {
		// Answered from the local store or not at all: a bare key is never
		// proxied — the full request that follows routes like any miss.
		rt.setCache(NeedBody)
		w.Header().Set("X-HAP-Cache", NeedBody)
		w.Header().Set("Content-Type", "application/json")
		w.Write(needBodyAnswer)
		return
	}
	s.misses.Add(1)
	rt.setCache("miss")
	// A miss owned by a peer proxies there instead of synthesizing here —
	// unless the request was already forwarded (a peer decided we should
	// handle it; re-forwarding could loop across divergent ring views).
	if !forwarded && s.proxyPlanRequest(w, r, body, key, rt) {
		return
	}
	plan, seedDist, err := s.planMiss(r.Context(), rt.rootSpan(), key, in)
	if err != nil {
		s.failSynthesis(w, err)
		return
	}
	if seedDist >= 0 {
		w.Header().Set(SeedDistanceHeader, strconv.FormatFloat(seedDist, 'g', -1, 64))
	}
	writePlan(w, r, plan, "miss")
}

// planMiss is the single-miss function — flight{re-check → gate → donor →
// synthesize → storePlan} — that every plan a request causes goes through.
// seedDist is the donor's distance when this caller's own search ran seeded,
// else -1.
func (s *Server) planMiss(ctx context.Context, sp *obs.Span, key string, in *planInput) (plan CachedPlan, seedDist float64, err error) {
	// The flight span covers the whole single-flight interaction: for the
	// executing caller it parents the synthesize/encode/replicate subtree,
	// for joined callers it measures the wait on someone else's synthesis.
	fs := sp.Child("flight")
	fs.SetAttrStr("key", key)
	// seedDist is set by the executing caller's closure when its synthesis
	// ran seeded, and stamps the response header. Joined waiters never run
	// the closure, so they report the plan without a seed header — they paid
	// a wait, not a seeded search.
	seedDist = -1.0
	// The closure runs under fctx, the flight context: alive while any client
	// still wants this plan, cancelled when the last one disconnects — so a
	// dropped connection aborts the search without killing the synthesis
	// other waiters are sharing.
	plan, err, shared := s.flight.do(ctx, key, func(fctx context.Context) (CachedPlan, error) {
		// Re-check under the flight: a request that missed while a previous
		// flight for this key was completing would otherwise re-synthesize a
		// plan the cache now holds.
		if v, ok := s.store.Get(key); ok {
			return v, nil
		}
		// Admission: the gate sits inside the flight, after the re-check, so
		// a miss is shed only when it would genuinely start a new synthesis —
		// joiners of an already-executing flight never reach here, and hits
		// were served before the flight. The executing caller's refusal
		// propagates to every waiter that joined this flight: they were all
		// waiting on a synthesis the daemon cannot afford right now.
		release, ok := s.acquireSynth()
		if !ok {
			s.admissionShed.Add(1)
			return CachedPlan{}, errOverloaded
		}
		defer release()
		src := newPlanSource(in.g, in.c, in.opts)
		p, v, err := s.synthesize(fctx, fs, key, in.c, src)
		if err != nil {
			return CachedPlan{}, err
		}
		if p.Seeded {
			seedDist = p.SeedDistance
		}
		// Stored before the flight key is released: a request arriving
		// between flight completion and a later insert would synthesize a
		// second time.
		v.src = src
		return s.storePlan(fs, key, v), nil
	})
	fs.SetAttrBool("shared", shared)
	fs.End()
	if shared {
		s.flightShared.Add(1)
	}
	return plan, seedDist, err
}

// donor names a cached plan a search may be seeded from, as the graph it was
// planned for (shared read-only) and its binary plan payload; shared counts
// the target's segment sub-fingerprints it shares. The zero donor means none.
type donor struct {
	key    string
	g      *graph.Graph
	bin    []byte
	shared int
}

// synthesize is the first half of the miss tail and the daemon's one planner
// call, made by planMiss alone while it holds an admission slot
// (acquireSynth). It plans src's graph on c, seeded from the nearest cached
// plan (nearestDonor), looked up inside the seeded_search span that records
// the choice (the planner's own search span carries the resulting seed
// distance and fast-forward depth); a donor that fails to decode means a cold
// search.
//
// The synthesize span rides on ctx, so the planner's phase spans (theory, beam
// levels, passes, verify) attach to the trace of whoever executes the search —
// a joined waiter's flight span shows the wait, not someone else's search.
// The planner call runs under Config.SynthTimeBudget, the one place the
// daemon's budget becomes the context's deadline.
func (s *Server) synthesize(ctx context.Context, sp *obs.Span, key string, c *cluster.Cluster, src *planSource) (*hap.Plan, CachedPlan, error) {
	s.syntheses.Add(1)
	ho := hap.Options{Segments: src.opts.Segments}
	sds := sp.Child("seeded_search")
	if d := s.nearestDonor(src, key); len(d.bin) > 0 {
		if dp, err := hap.ReadProgramBinary(bytes.NewReader(d.bin), d.g); err == nil {
			ho.SeedGraph, ho.SeedPlan = dp.Program.Graph, dp
			sds.SetAttrStr("donor", d.key)
			sds.SetAttrInt("shared_subs", int64(d.shared))
		}
	}
	sds.End()
	ss := sp.Child("synthesize")
	sctx := obs.ContextWithSpan(ctx, ss)
	if budget := s.cfg.SynthTimeBudget; budget > 0 {
		var cancel context.CancelFunc
		sctx, cancel = context.WithTimeout(sctx, budget)
		defer cancel()
	}
	p, err := s.cfg.Synthesize(sctx, src.g, c, ho)
	if err == nil && p.Seeded {
		ss.SetAttrFloat("seed_distance", p.SeedDistance)
	}
	ss.End()
	if err != nil {
		return nil, CachedPlan{}, err
	}
	if p.Seeded {
		s.synthIncremental.Add(1)
	}
	es := sp.Child("encode")
	v, err := encodePlan(p)
	es.End()
	return p, v, err
}

// fleetRole classifies this node's relationship to a cache key for the
// trace and slow-log labels.
func (s *Server) fleetRole(key string) string {
	f := s.cfg.Fleet
	if f == nil {
		return roleLocal
	}
	switch {
	case f.Owner(key) == f.Self():
		return roleOwner
	case slices.Contains(f.ReplicaSet(key), f.Self()):
		return roleReplica
	default:
		return roleProxy
	}
}

// encodePlan renders a synthesized plan into its cached form, the binary
// payload.
func encodePlan(p *hap.Plan) (CachedPlan, error) {
	var bin bytes.Buffer
	if err := p.WriteProgramBinary(&bin); err != nil {
		return CachedPlan{}, err
	}
	return CachedPlan{Bin: bin.Bytes()}, nil
}

// storePlan is the second half of the miss tail: it inserts a freshly
// synthesized plan, carrying the planSource it was planned from, into the
// store (which mirrors it to disk when persistence is on) and, when this node
// owns the key, replicates it to the ring successors. It returns the plan as
// stored — with the version and ETag the store assigned — so the synthesis
// response and the replication pushes carry the same metadata the next cache
// hit will. A plan the store rejects (over its caps) comes back tagged all
// the same: the response still gets an ETag, just no stored version sequence
// (and its source is gone with it).
//
// sp, when non-nil, parents the replication fan-out span so the pushes show
// up in the request trace that produced the plan (a drift re-solve has none).
func (s *Server) storePlan(sp *obs.Span, key string, v CachedPlan) CachedPlan {
	v = s.store.Put(key, v)
	s.maybeReplicate(sp, key, v)
	return v
}

// writePlan renders one cached plan, honoring conditional fetch: a request
// whose If-None-Match matches the plan's current ETag gets 304 Not Modified
// with no body — a warm client revalidating after a drift-triggered replan
// pays a handful of header bytes instead of the full plan, until the swap
// actually changes the content. The ETag and version headers ride on every
// response (including the 304, per RFC 9110) so clients always hold the
// current tag.
func writePlan(w http.ResponseWriter, r *http.Request, plan CachedPlan, cache string) {
	w.Header().Set("X-HAP-Cache", cache)
	if plan.ETag != "" {
		w.Header().Set("ETag", plan.ETag)
	}
	if plan.Version > 0 {
		w.Header().Set(PlanVersionHeader, strconv.FormatUint(plan.Version, 10))
	}
	if plan.ETag != "" && etagMatches(r.Header.Get("If-None-Match"), plan.ETag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	w.Header().Set("Content-Type", BinaryPlanContentType)
	w.Write(plan.Bin)
}

// etagMatches implements the If-None-Match comparison: a comma-separated
// list of entity tags, or "*" matching anything. Weak tags (W/ prefix)
// compare by their opaque value — the weak comparison RFC 9110 prescribes
// for If-None-Match.
func etagMatches(ifNoneMatch, etag string) bool {
	if ifNoneMatch == "" {
		return false
	}
	for _, part := range strings.Split(ifNoneMatch, ",") {
		tag := strings.TrimSpace(part)
		if tag == "*" {
			return true
		}
		tag = strings.TrimPrefix(tag, "W/")
		if tag == etag {
			return true
		}
	}
	return false
}

// healthzPayload is the GET /healthz body: liveness, the wire protocol
// version and (on a fleet node) the fleet membership. Counters are on
// /metrics only.
type healthzPayload struct {
	Status   string              `json:"status"`
	Protocol string              `json:"protocol"`
	Fleet    *fleetHealthPayload `json:"fleet,omitempty"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(healthzPayload{
		Status:   "ok",
		Protocol: ProtocolVersion,
		Fleet:    s.fleetHealth(),
	})
}
