// Tests for the daemon's tracing layer: the single-node span tree of a cold
// synthesis, cross-node trace propagation over a fleet proxy hop, the
// Chrome trace-event export, the -trace-slow structured log line, and the
// phase summaries /metrics derives from completed spans.

package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"hap/internal/cluster"
	"hap/internal/fleet"
	"hap/internal/obs"
	"hap/internal/telemetry"
)

// beamCluster has three devices, so synth.Auto picks the beam search and
// the search span carries the beam's level sums (two devices solve exactly).
func beamCluster() *cluster.Cluster {
	return cluster.FromGPUs(cluster.DefaultNetwork(),
		cluster.MachineSpec{Type: cluster.V100, GPUs: 2},
		cluster.MachineSpec{Type: cluster.P100, GPUs: 1})
}

// getTraceList fetches GET /v1/debug/traces.
func getTraceList(t *testing.T, url string) []TraceSummary {
	t.Helper()
	resp, err := http.Get(url + "/v1/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/debug/traces: status %d", resp.StatusCode)
	}
	var out struct {
		Traces []TraceSummary `json:"traces"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode trace list: %v", err)
	}
	return out.Traces
}

// getTrace fetches GET /v1/debug/traces/{id}.
func getTrace(t *testing.T, url, id string) *obs.TraceRecord {
	t.Helper()
	resp, err := http.Get(url + "/v1/debug/traces/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/debug/traces/%s: status %d", id, resp.StatusCode)
	}
	var rec obs.TraceRecord
	if err := json.NewDecoder(resp.Body).Decode(&rec); err != nil {
		t.Fatalf("decode trace: %v", err)
	}
	return &rec
}

// spanNames collects the distinct span names of a trace.
func spanNames(rec *obs.TraceRecord) map[string]int {
	names := map[string]int{}
	for _, sp := range rec.Spans {
		names[sp.Name]++
	}
	return names
}

// assertWellFormed checks every span's parent exists in the trace (or is 0)
// and that exactly one root span exists.
func assertWellFormed(t *testing.T, rec *obs.TraceRecord) {
	t.Helper()
	ids := map[uint64]bool{}
	roots := 0
	for _, sp := range rec.Spans {
		if sp.ID == 0 {
			t.Fatalf("span %q has zero ID", sp.Name)
		}
		ids[sp.ID] = true
	}
	for _, sp := range rec.Spans {
		if sp.Parent == 0 {
			roots++
			continue
		}
		if !ids[sp.Parent] {
			t.Errorf("span %q parent %x not in trace", sp.Name, sp.Parent)
		}
	}
	if roots != 1 {
		t.Errorf("trace has %d roots, want exactly 1", roots)
	}
}

// wantSearchLevels holds a beam miss's trace to the search contract: every
// search span sums its beam levels — at least two, as many candidates as
// the selection loop read or more, the merge sorting no more than it was
// given — and no span is recorded per level.
func wantSearchLevels(t *testing.T, rec *obs.TraceRecord) {
	t.Helper()
	searches := 0
	for _, sp := range rec.Spans {
		if sp.Name != "search" {
			continue
		}
		searches++
		n := map[string]int{}
		for _, attr := range []string{"levels", "candidates", "read", "sorted"} {
			v, err := strconv.Atoi(sp.Attrs[attr])
			if err != nil {
				t.Fatalf("search span %s attr %q: %v (attrs %v)", attr, sp.Attrs[attr], err, sp.Attrs)
			}
			n[attr] = v
		}
		if n["levels"] < 2 || n["read"] > n["candidates"] || n["sorted"] > n["candidates"] {
			t.Errorf("search span sums %v, want levels >= 2, read and sorted <= candidates", n)
		}
	}
	if searches == 0 {
		t.Error("trace has no search span")
	}
	if n := spanNames(rec)["beam_level"]; n != 0 {
		t.Errorf("trace records %d beam_level spans, want the levels summed on the search span", n)
	}
}

// TestTraceSingleNodeSynthesis: a cold miss on a standalone daemon records
// one trace whose span tree covers the whole pipeline — decode, cache
// lookup, flight, synthesize, theory, beam search, verify, encode — with
// the beam's levels summed on the search span, and a repeat hit records a
// trace with no synthesis.
func TestTraceSingleNodeSynthesis(t *testing.T) {
	srv := httptest.NewServer(New(Config{}).Handler())
	defer srv.Close()
	body := requestBody(t, testGraph(t), beamCluster(), RequestOptions{})

	resp, err := http.Post(srv.URL+"/v1/synthesize", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("synthesize: status %d", resp.StatusCode)
	}
	traceID := resp.Header.Get(obs.TraceHeader)
	if traceID == "" {
		t.Fatal("response carries no X-HAP-Trace header")
	}

	rec := getTrace(t, srv.URL, traceID)
	assertWellFormed(t, rec)
	names := spanNames(rec)
	for _, want := range []string{"request", "decode", "cache_lookup", "flight", "synthesize", "theory", "search", "verify", "encode"} {
		if names[want] == 0 {
			t.Errorf("trace lacks a %q span (got %v)", want, names)
		}
	}
	wantSearchLevels(t, rec)
	root := rec.Root()
	if root.Attrs["cache"] != "miss" || root.Attrs["endpoint"] != EndpointV1 {
		t.Errorf("root attrs = %v, want cache=miss endpoint=%s", root.Attrs, EndpointV1)
	}
	spanAttrs := map[string][]string{
		"flight": {"key", "shared"},
	}
	for _, sp := range rec.Spans {
		for _, attr := range spanAttrs[sp.Name] {
			if sp.Attrs[attr] == "" {
				t.Errorf("%s span lacks %s attr: %v", sp.Name, attr, sp.Attrs)
			}
		}
	}

	// The repeat request is a hit: its trace has a cache_lookup but no
	// synthesize span, and the listing shows both traces newest-first.
	resp2, err := http.Post(srv.URL+"/v1/synthesize", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	hitID := resp2.Header.Get(obs.TraceHeader)
	hit := getTrace(t, srv.URL, hitID)
	if n := spanNames(hit); n["synthesize"] != 0 || n["cache_lookup"] == 0 {
		t.Errorf("hit trace spans = %v, want cache_lookup and no synthesize", n)
	}
	if hit.Root().Attrs["cache"] != "hit" {
		t.Errorf("hit trace root cache attr = %q", hit.Root().Attrs["cache"])
	}
	list := getTraceList(t, srv.URL)
	if len(list) != 2 || list[0].TraceID != hitID || list[1].TraceID != traceID {
		t.Errorf("trace list = %+v, want [hit, miss] newest first", list)
	}
}

// TestTraceClientProvidedID: a client-sent X-HAP-Trace ID is adopted as the
// trace identifier, so the caller can look the request up afterwards.
func TestTraceClientProvidedID(t *testing.T) {
	srv := httptest.NewServer(New(Config{}).Handler())
	defer srv.Close()
	body := requestBody(t, testGraph(t), testCluster(), RequestOptions{})

	req, _ := http.NewRequest(http.MethodPost, srv.URL+"/v1/synthesize", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obs.TraceHeader, "cafe0123cafe0123")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get(obs.TraceHeader); got != "cafe0123cafe0123" {
		t.Fatalf("response trace ID = %q, want the client-chosen one", got)
	}
	rec := getTrace(t, srv.URL, "cafe0123cafe0123")
	assertWellFormed(t, rec)
}

// TestTraceClientIDVerbatim: an end client's X-HAP-Trace value is the trace
// ID as sent, even when it ends in "-<hex>" like a fleet hop's — a UUID must
// not lose its last group to the hop parser, or the client's lookup 404s and
// the trace's root gains a parent, so the listing shows no endpoint. A value
// over 64 bytes is replaced by a minted ID rather than kept in the ring.
func TestTraceClientIDVerbatim(t *testing.T) {
	srv := httptest.NewServer(New(Config{}).Handler())
	defer srv.Close()
	send := func(id string) string {
		t.Helper()
		req, _ := http.NewRequest(http.MethodPost, srv.URL+"/v1/synthesize", strings.NewReader("{}"))
		req.Header.Set(obs.TraceHeader, id)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("POST {} = %d, want 400", resp.StatusCode)
		}
		return resp.Header.Get(obs.TraceHeader)
	}

	const uuid = "123e4567-e89b-12d3-a456-426614174000"
	if got := send(uuid); got != uuid {
		t.Fatalf("response trace ID = %q, want the client's %q", got, uuid)
	}
	rec := getTrace(t, srv.URL, uuid)
	assertWellFormed(t, rec)
	if root := rec.Root(); root.Name != "request" || root.Parent != 0 {
		t.Errorf("trace root = %q with parent %x, want an unparented request span", root.Name, root.Parent)
	}
	list := getTraceList(t, srv.URL)
	if len(list) == 0 || list[0].TraceID != uuid || list[0].Endpoint != EndpointV1 || list[0].Status != "400" {
		t.Errorf("newest listed trace = %+v, want %s on endpoint v1 with status 400", list, uuid)
	}

	long := strings.Repeat("a", maxClientTraceID+1)
	if got := send(long); !isMintedTraceID(got) {
		t.Errorf("%d-byte trace ID answered as %q, want a minted 16-hex ID", len(long), got)
	}
}

// isMintedTraceID reports whether id has obs.NewTraceID's form.
func isMintedTraceID(id string) bool {
	if len(id) != 16 {
		return false
	}
	for _, c := range id {
		if !strings.ContainsRune("0123456789abcdef", c) {
			return false
		}
	}
	return true
}

// FuzzTraceHeader serves a traced 400 (POST /v1/synthesize with body {})
// under an arbitrary X-HAP-Trace value: the handler must not panic, the
// response must carry the sent ID — or a minted one for an empty or
// over-long value — and the newest trace in the ring must have that ID and
// a root request span.
func FuzzTraceHeader(f *testing.F) {
	for _, seed := range []string{"", "cafe0123cafe0123", "abc-1f", "123e4567-e89b-12d3-a456-426614174000"} {
		f.Add(seed)
	}
	s := New(Config{})
	h := s.Handler()
	f.Fuzz(func(t *testing.T, id string) {
		for i := 0; i < len(id); i++ {
			if c := id[i]; (c < ' ' && c != '\t') || c == 0x7f {
				t.Skip("net/http refuses to send control bytes in a header value")
			}
		}
		req := httptest.NewRequest(http.MethodPost, "/v1/synthesize", strings.NewReader("{}"))
		req.Header.Set(obs.TraceHeader, id)
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, req)
		if rr.Code != http.StatusBadRequest {
			t.Fatalf("POST {} = %d, want 400", rr.Code)
		}
		got := rr.Header().Get(obs.TraceHeader)
		if id == "" || len(id) > maxClientTraceID {
			if !isMintedTraceID(got) {
				t.Fatalf("trace ID %q (%d bytes) answered as %q, want a minted 16-hex ID", id, len(id), got)
			}
		} else if got != id {
			t.Fatalf("trace ID %q answered as %q, want it verbatim", id, got)
		}
		traces := s.traces.Traces()
		if len(traces) == 0 || traces[0].TraceID != got {
			t.Fatalf("newest trace is not %q", got)
		}
		if root := traces[0].Root(); root.Name != "request" || root.Parent != 0 {
			t.Fatalf("trace %q root = %q with parent %x, want an unparented request span", got, root.Name, root.Parent)
		}
	})
}

// TestTraceRingDisabled: a negative TraceRing turns tracing off — no trace
// header on responses, 404 from the debug endpoint, requests still served.
func TestTraceRingDisabled(t *testing.T) {
	srv := httptest.NewServer(New(Config{TraceRing: -1}).Handler())
	defer srv.Close()
	body := requestBody(t, testGraph(t), testCluster(), RequestOptions{})
	resp, err := http.Post(srv.URL+"/v1/synthesize", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("synthesize with tracing off: status %d", resp.StatusCode)
	}
	if got := resp.Header.Get(obs.TraceHeader); got != "" {
		t.Errorf("tracing off but response carries trace ID %q", got)
	}
	dbg, err := http.Get(srv.URL + "/v1/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, dbg.Body)
	dbg.Body.Close()
	if dbg.StatusCode != http.StatusNotFound {
		t.Errorf("debug endpoint with tracing off: status %d, want 404", dbg.StatusCode)
	}
}

// newTracedPair boots a 2-node fleet with the real (context-aware) planner,
// so synthesis-phase spans land in the owner's request trace.
func newTracedPair(t *testing.T) []*fleetNode {
	t.Helper()
	nodes := make([]*fleetNode, 2)
	switches := make([]*switchHandler, 2)
	urls := make([]string, 2)
	for i := range nodes {
		switches[i] = &switchHandler{}
		srv := httptest.NewServer(switches[i])
		t.Cleanup(srv.Close)
		nodes[i] = &fleetNode{url: srv.URL, srv: srv}
		urls[i] = srv.URL
	}
	for i, n := range nodes {
		fl, err := fleet.New(fleet.Config{Self: n.url, Peers: urls, Replicas: 2})
		if err != nil {
			t.Fatal(err)
		}
		n.s = New(Config{Fleet: fl})
		switches[i].set(n.s.Handler())
	}
	return nodes
}

// TestTraceFleetCrossNode is the tracing acceptance test: a cold request
// through the NON-owning node yields ONE trace containing spans from both
// nodes — the proxy hop on the requesting node, and the remote request
// subtree (synthesis phases, replication fan-out) parented under that hop —
// plus a valid Chrome export with one process per node.
func TestTraceFleetCrossNode(t *testing.T) {
	nodes := newTracedPair(t)
	g, c := testGraph(t), beamCluster()
	key := cacheKey(g, c, RequestOptions{})
	ownerURL := nodes[0].s.cfg.Fleet.Owner(key)
	requester := nodes[0]
	if requester.url == ownerURL {
		requester = nodes[1]
	}

	body := requestBody(t, g, c, RequestOptions{})
	resp, err := http.Post(requester.url+"/v1/synthesize", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cross-node synthesize: status %d", resp.StatusCode)
	}
	if resp.Header.Get(obs.SpansHeader) != "" {
		t.Error("span-export header leaked to an end client (must be fleet-internal)")
	}
	traceID := resp.Header.Get(obs.TraceHeader)
	rec := getTrace(t, requester.url, traceID)
	assertWellFormed(t, rec)

	names := spanNames(rec)
	for _, want := range []string{"request", "proxy", "synthesize", "theory", "search", "verify", "encode", "replicate", "replicate_push"} {
		if names[want] == 0 {
			t.Errorf("cross-node trace lacks a %q span (got %v)", want, names)
		}
	}
	wantSearchLevels(t, rec)
	if names["request"] != 2 {
		t.Errorf("cross-node trace has %d request spans, want 2 (one per node)", names["request"])
	}

	// Spans from both nodes, and the remote request span parented under the
	// proxy hop recorded on the requesting node.
	byNode := map[string]int{}
	var proxyID, remoteRootParent uint64
	for _, sp := range rec.Spans {
		byNode[sp.Node]++
		if sp.Name == "proxy" {
			proxyID = sp.ID
		}
		if sp.Name == "request" && sp.Node == ownerURL {
			remoteRootParent = sp.Parent
		}
	}
	if byNode[requester.url] == 0 || byNode[ownerURL] == 0 {
		t.Fatalf("trace spans by node = %v, want both %s and %s", byNode, requester.url, ownerURL)
	}
	if proxyID == 0 || remoteRootParent != proxyID {
		t.Errorf("remote request span parent = %x, want the proxy hop span %x", remoteRootParent, proxyID)
	}

	// The Chrome export is valid JSON with one process per node plus every
	// span as a complete event.
	chromeResp, err := http.Get(requester.url + "/v1/debug/traces/" + traceID + "?format=chrome")
	if err != nil {
		t.Fatal(err)
	}
	defer chromeResp.Body.Close()
	var chrome struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			PID  int    `json:"pid"`
		} `json:"traceEvents"`
	}
	if err := json.NewDecoder(chromeResp.Body).Decode(&chrome); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v", err)
	}
	procs, complete := map[int]bool{}, 0
	for _, ev := range chrome.TraceEvents {
		switch ev.Ph {
		case "M":
			procs[ev.PID] = true
		case "X":
			complete++
		}
	}
	if len(procs) != 2 {
		t.Errorf("chrome export names %d processes, want 2 (one per node)", len(procs))
	}
	if complete != len(rec.Spans) {
		t.Errorf("chrome export has %d complete events for %d spans", complete, len(rec.Spans))
	}

	// The owner recorded its own trace too (same ID, its local subtree) —
	// but the requester's merged view is the single source of truth asserted
	// above.
	if owner := getTrace(t, ownerURL, traceID); len(owner.Spans) == 0 {
		t.Error("owner node retained no trace for the forwarded request")
	}
}

// syncBuffer is a goroutine-safe log sink.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestTraceSlowLogEveryRequest: with a negative -trace-slow every request
// emits one structured slow-request line, parseable as JSON, carrying the
// trace ID the client saw and a span breakdown.
func TestTraceSlowLogEveryRequest(t *testing.T) {
	var logs syncBuffer
	s := New(Config{TraceSlow: -1, Logger: obs.NewLogger("json", &logs)})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	body := requestBody(t, testGraph(t), testCluster(), RequestOptions{})
	resp, err := http.Post(srv.URL+"/v1/synthesize", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	traceID := resp.Header.Get(obs.TraceHeader)

	var found bool
	for _, line := range strings.Split(strings.TrimSpace(logs.String()), "\n") {
		if line == "" {
			continue
		}
		var entry map[string]any
		if err := json.Unmarshal([]byte(line), &entry); err != nil {
			t.Fatalf("log line is not JSON: %q (%v)", line, err)
		}
		if entry["msg"] != "slow request" {
			continue
		}
		found = true
		if entry["trace_id"] != traceID {
			t.Errorf("slow log trace_id = %v, want %s", entry["trace_id"], traceID)
		}
		if entry["endpoint"] != EndpointV1 || entry["cache"] != "miss" {
			t.Errorf("slow log labels = endpoint:%v cache:%v", entry["endpoint"], entry["cache"])
		}
		spans, _ := entry["spans"].(string)
		if !strings.Contains(spans, "synthesize=") {
			t.Errorf("slow log span breakdown %q lacks synthesize", spans)
		}
	}
	if !found {
		t.Fatalf("no slow-request line logged; log was:\n%s", logs.String())
	}
	if got := s.slowRequests.Load(); got != 1 {
		t.Errorf("slowRequests counter = %d, want 1", got)
	}
}

// TestMetricsPhaseSummaries: a cold synthesis feeds the per-phase /metrics
// summaries; every phase slot has a count and the slow-request counter
// exists.
func TestMetricsPhaseSummaries(t *testing.T) {
	srv := httptest.NewServer(New(Config{}).Handler())
	defer srv.Close()
	body := requestBody(t, testGraph(t), beamCluster(), RequestOptions{})
	resp, err := http.Post(srv.URL+"/v1/synthesize", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	raw, _ := io.ReadAll(mresp.Body)
	text := string(raw)
	for _, phase := range phaseNames {
		line := fmt.Sprintf("hap_serve_synth_phase_seconds_count{phase=%q} ", phase)
		i := strings.Index(text, line)
		if i < 0 {
			t.Errorf("/metrics lacks %s", line)
			continue
		}
		rest := text[i+len(line):]
		if strings.HasPrefix(rest, "0\n") {
			t.Errorf("phase %q count is 0 after a cold synthesis", phase)
		}
	}
	if !strings.Contains(text, "hap_serve_slow_requests_total") {
		t.Error("/metrics lacks hap_serve_slow_requests_total")
	}
}

// TestMetricsScrapeDuringReplan hammers /metrics and Stats while a drift
// report re-solves and swaps a cached plan — the regression test for the
// scrape path reading live counters mid-swap (run under -race).
func TestMetricsScrapeDuringReplan(t *testing.T) {
	s := New(Config{})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	g, c := testGraph(t), testCluster()
	body := requestBody(t, g, c, RequestOptions{})
	status, _, _ := post(t, srv.URL, body)
	if status != http.StatusOK {
		t.Fatalf("seeding synthesis: status %d", status)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(srv.URL + "/metrics")
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				s.Stats()
			}
		}()
	}

	// Throttle device 0 to half throughput: past the drift threshold, the
	// cached entry is re-solved and swapped while the scrapers run.
	tb := telemetryBody(t, c, TelemetryRequest{
		Devices: []telemetry.DeviceSample{{Device: 0, TFLOPS: achievedTFLOPS(c, 0) * 0.5}},
	})
	tstatus, tr, raw := postTelemetry(t, srv.URL, tb)
	if tstatus != http.StatusOK || !tr.Drifted || tr.ReplansStarted != 1 {
		t.Fatalf("telemetry: status %d drifted=%v replans=%d: %s", tstatus, tr.Drifted, tr.ReplansStarted, raw)
	}
	close(stop)
	wg.Wait()
	if ts := s.Stats().Telemetry; ts.Replans != 1 || ts.ReplanErrors != 0 {
		t.Errorf("replans %d, replan_errors %d; want 1 and 0", ts.Replans, ts.ReplanErrors)
	}
}
