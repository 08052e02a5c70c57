// Tests for the key-only request form of /v1/synthesize, the one way a
// request's cache key is known before anything is decoded, beside the full
// body it stands in for. Every scenario ends in the correct plan
// (hap.ReadProgramBinary's binding check passes against a freshly built
// graph) or in need_body, and — unless it is about a rejected request — with
// the error counter at zero.

package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"testing"

	"hap"
	"hap/internal/cluster"
	"hap/internal/fingerprint"
	"hap/internal/graph"
	"hap/internal/models"
	"hap/internal/obs"
	"hap/internal/segment"
	"hap/internal/telemetry"
)

// clientKey derives a plan key the way package client does: from in-memory
// values, nothing encoded.
func clientKey(g *graph.Graph, c *cluster.Cluster, opt RequestOptions) string {
	return fingerprint.PlanKey(graph.Fingerprint(g), c.Fingerprint(), fingerprint.Options(opt))
}

func keyBody(key string) []byte {
	b, _ := json.Marshal(Request{Key: key})
	return b
}

// answer is one response of the single-plan endpoint.
type answer struct {
	status int
	cache  string // X-HAP-Cache
	etag   string
	trace  string // obs.TraceHeader
	body   []byte
}

// ask posts body to /v1/synthesize as the client does, asking for the binary
// plan form.
func ask(t *testing.T, url string, body []byte, ifNoneMatch string) answer {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/v1/synthesize", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", BinaryPlanContentType)
	if ifNoneMatch != "" {
		req.Header.Set("If-None-Match", ifNoneMatch)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return answer{resp.StatusCode, resp.Header.Get("X-HAP-Cache"), resp.Header.Get("ETag"), resp.Header.Get(obs.TraceHeader), readAll(t, resp)}
}

// wantPlan asserts a is a 200 plan answer with the given cache outcome whose
// plan binds to a fresh build of g.
func wantPlan(t *testing.T, what string, a answer, cache string, g *graph.Graph) {
	t.Helper()
	if a.status != http.StatusOK || a.cache != cache {
		t.Fatalf("%s: status %d cache %q, want 200/%s: %s", what, a.status, a.cache, cache, a.body)
	}
	if _, err := hap.ReadProgramBinary(bytes.NewReader(a.body), g); err != nil {
		t.Fatalf("%s: served plan does not bind to the request's graph: %v", what, err)
	}
}

func wantNeedBody(t *testing.T, what string, a answer) {
	t.Helper()
	var env ErrorEnvelope
	if a.status != http.StatusOK || a.cache != NeedBody || json.Unmarshal(a.body, &env) != nil || env.Code != NeedBody {
		t.Fatalf("%s: status %d cache %q body %q, want the %s answer", what, a.status, a.cache, a.body, NeedBody)
	}
}

// wantCounters asserts the daemon's hit/miss/error counters.
func wantCounters(t *testing.T, s *Server, hits, misses, errs uint64) {
	t.Helper()
	if st := s.Stats(); st.CacheHits != hits || st.CacheMisses != misses || st.Errors != errs {
		t.Errorf("hits/misses/errors = %d/%d/%d, want %d/%d/%d", st.CacheHits, st.CacheMisses, st.Errors, hits, misses, errs)
	}
}

func newKeyFirstServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	s := New(cfg)
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	return s, srv.URL
}

// TestClientKeyEqualsServerKey is the wire contract of the key-only form:
// the key derived from an in-memory (graph, cluster, options) triple equals
// the key the daemon derives from the decoded request body — over the model
// zoo, random MLPs, segmented graphs, and every options shape.
func TestClientKeyEqualsServerKey(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	graphs := []*graph.Graph{
		testGraph(t),
		models.Training(models.VGG19(8, 32, 10)),
		models.Training(models.BERT(models.TransformerConfig{Layers: 2, Hidden: 64, FFN: 128, SeqLen: 16, Vocab: 512}, 64)),
		models.Training(models.ViT(models.TransformerConfig{Layers: 2, Hidden: 64, FFN: 128, SeqLen: 16}, 64, 48, 10)),
		models.MLP(16, 8, 4), // forward only: no gradients, no parameters' grads
	}
	for i := 0; i < 20; i++ {
		widths := make([]int, 2+rng.Intn(5))
		for j := range widths {
			widths[j] = 1 + rng.Intn(96)
		}
		g := models.Training(models.MLP(1+rng.Intn(64), widths...))
		if rng.Intn(2) == 0 {
			segment.Assign(g, 1+rng.Intn(4))
		}
		graphs = append(graphs, g)
	}
	clusters := []*cluster.Cluster{testCluster(), cluster.PaperHeterogeneous(1), cluster.PaperHomogeneous(2), cluster.PaperA100P100()}
	options := []RequestOptions{
		{},
		{Segments: 4},
	}
	for gi, g := range graphs {
		for ci, c := range clusters {
			for oi, opt := range options {
				server, _, err := decodeRequest(requestBody(t, g, c, opt))
				if err != nil {
					t.Fatalf("graph %d cluster %d: %v", gi, ci, err)
				}
				if client := clientKey(g, c, opt); server != client {
					t.Errorf("graph %d cluster %d options %d: server derives %q, client %q", gi, ci, oi, server, client)
				}
			}
		}
	}
}

// TestKeyOnlyRequest: a key in the store is answered exactly like a full-body
// hit — same bytes, same tag, 304 on revalidation, the same binary answer
// without an Accept header, one cache_hits each — and any other key gets need_body
// without touching the miss or error counters.
func TestKeyOnlyRequest(t *testing.T) {
	s, url := newKeyFirstServer(t, Config{})
	c := testCluster()
	body := requestBody(t, testGraph(t), c, RequestOptions{})
	key := clientKey(testGraph(t), c, RequestOptions{})

	wantNeedBody(t, "key before the plan exists", ask(t, url, keyBody(key), ""))
	wantCounters(t, s, 0, 0, 0)

	fill := ask(t, url, body, "")
	wantPlan(t, "fill", fill, "miss", testGraph(t))
	full := ask(t, url, body, "")
	wantPlan(t, "full-body hit", full, "hit", testGraph(t))
	byKey := ask(t, url, keyBody(key), "")
	wantPlan(t, "key-only hit", byKey, "hit", testGraph(t))
	if !bytes.Equal(byKey.body, full.body) || byKey.etag != full.etag || byKey.etag == "" {
		t.Errorf("key-only hit differs from the full-body hit (tags %q / %q)", byKey.etag, full.etag)
	}
	if a := ask(t, url, keyBody(key), full.etag); a.status != http.StatusNotModified || len(a.body) != 0 || a.etag != full.etag {
		t.Errorf("key-only revalidation: status %d, %d body bytes, tag %q; want an empty 304 with %q", a.status, len(a.body), a.etag, full.etag)
	}
	resp := postPath(t, url, "/v1/synthesize", keyBody(key), "")
	noAccept := readAll(t, resp)
	if ct := resp.Header.Get("Content-Type"); !bytes.Equal(noAccept, full.body) || ct != BinaryPlanContentType || resp.Header.Get("X-HAP-Cache") != "hit" {
		t.Errorf("key-only hit without an Accept header: cache %q, Content-Type %q, same bytes %v; want the binary hit", resp.Header.Get("X-HAP-Cache"), ct, bytes.Equal(noAccept, full.body))
	}
	wantCounters(t, s, 4, 1, 0)

	// Keys the store does not hold: garbage, and the same graph under other
	// options.
	for what, k := range map[string]string{
		"garbage key":       "not-a-key",
		"huge key":          strings.Repeat("f", 1<<16),
		"other options key": clientKey(testGraph(t), c, RequestOptions{Segments: 3}),
	} {
		wantNeedBody(t, what, ask(t, url, keyBody(k), ""))
	}
	wantCounters(t, s, 4, 1, 0)

	// A body with graph and cluster is a full request whatever key rides
	// along: the daemon derives its own.
	var withKey map[string]json.RawMessage
	if err := json.Unmarshal(body, &withKey); err != nil {
		t.Fatal(err)
	}
	withKey["key"] = json.RawMessage(`"not-a-key"`)
	mixed, _ := json.Marshal(withKey)
	wantPlan(t, "full body with a stray key", ask(t, url, mixed, ""), "hit", testGraph(t))

	wantCounters(t, s, 5, 1, 0)
}

// TestKeyOnlyAfterEviction: the key of an evicted plan is an unknown key, and
// the full request that follows brings the plan back, decoding its body once.
func TestKeyOnlyAfterEviction(t *testing.T) {
	s, url := newKeyFirstServer(t, Config{MaxCacheEntries: 1})
	c := testCluster()
	first, second := seedServeGraph(32, 48, 8), seedServeGraph(32, 40, 8)
	firstBody := requestBody(t, first, c, RequestOptions{})
	wantPlan(t, "fill first", ask(t, url, firstBody, ""), "miss", seedServeGraph(32, 48, 8))
	wantPlan(t, "fill second (evicts first)", ask(t, url, requestBody(t, second, c, RequestOptions{}), ""), "miss", seedServeGraph(32, 40, 8))

	key := clientKey(first, c, RequestOptions{})
	wantNeedBody(t, "key of the evicted plan", ask(t, url, keyBody(key), ""))
	// The repeat of the first body misses the store and re-synthesizes from
	// the one decode that derived its key.
	again := ask(t, url, firstBody, "")
	wantPlan(t, "repeat body, evicted key", again, "miss", seedServeGraph(32, 48, 8))
	if n := spanNames(getTrace(t, url, again.trace))["decode"]; n != 1 {
		t.Errorf("repeat body of an evicted plan: %d decode spans, want 1", n)
	}
	wantPlan(t, "key after the refill", ask(t, url, keyBody(key), ""), "hit", seedServeGraph(32, 48, 8))
	wantCounters(t, s, 1, 3, 0)
	if st := s.Stats(); st.Syntheses != 3 || st.CacheEvictions != 2 {
		t.Errorf("syntheses/evictions = %d/%d, want 3/2", st.Syntheses, st.CacheEvictions)
	}
}

// TestBodiesSharingOneKey: bodies that differ as bytes but not as content —
// renamed nodes, re-indented JSON — each decode to the one key, and all hit
// the one cached plan.
func TestBodiesSharingOneKey(t *testing.T) {
	s, url := newKeyFirstServer(t, Config{})
	c := testCluster()
	g := testGraph(t)
	body := requestBody(t, g, c, RequestOptions{})
	renamed := testGraph(t)
	for i := range renamed.Nodes {
		renamed.Nodes[i].Name = "n" + renamed.Nodes[i].Name
	}
	renamedBody := requestBody(t, renamed, c, RequestOptions{})
	var indented bytes.Buffer
	if err := json.Indent(&indented, body, "", "\t"); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(body, renamedBody) || bytes.Equal(body, indented.Bytes()) {
		t.Fatal("variant bodies are byte-identical to the original: the test proves nothing")
	}

	fill := ask(t, url, body, "")
	wantPlan(t, "fill", fill, "miss", testGraph(t))
	for round := 0; round < 2; round++ { // second round: a repeat body decodes as the first did
		for what, b := range map[string][]byte{"original": body, "renamed nodes": renamedBody, "re-indented": indented.Bytes()} {
			a := ask(t, url, b, "")
			wantPlan(t, what, a, "hit", testGraph(t))
			if !bytes.Equal(a.body, fill.body) {
				t.Errorf("%s: served different plan bytes than the fill", what)
			}
		}
	}
	wantCounters(t, s, 6, 1, 0)
	if st := s.Stats(); st.Syntheses != 1 || st.CacheEntries != 1 {
		t.Errorf("syntheses/entries = %d/%d, want 1/1", st.Syntheses, st.CacheEntries)
	}
}

// TestRejectedBodyRejectedEveryTime: a body that fails to parse, decode or
// validate is rejected every time it is sent — nothing remembered from the
// first attempt short-cuts the second into the store.
func TestRejectedBodyRejectedEveryTime(t *testing.T) {
	s, url := newKeyFirstServer(t, Config{})
	bad := [][]byte{
		[]byte("]["),
		[]byte(`{"graph": {"version": 1}}`),
		[]byte(`{"graph": {"version": 1}, "cluster": {"version": 1}}`),
		[]byte(`{}`),
	}
	for round := 0; round < 2; round++ {
		for _, b := range bad {
			if a := ask(t, url, b, ""); a.status != http.StatusBadRequest {
				t.Errorf("round %d: body %q answered %d (%s), want 400", round, b, a.status, a.cache)
			}
		}
	}
	wantCounters(t, s, 0, 0, uint64(2*len(bad)))
}

// TestOversizedBodyBeatsStore: the size cap is enforced while reading, before
// the key is looked up — even a body whose plan is in the store is answered
// request_too_large.
func TestOversizedBodyBeatsStore(t *testing.T) {
	c := testCluster()
	body := requestBody(t, testGraph(t), c, RequestOptions{})
	s, url := newKeyFirstServer(t, Config{maxRequestBytes: int64(len(body)) - 1})
	key := clientKey(testGraph(t), c, RequestOptions{})
	s.store.Put(key, CachedPlan{Bin: framed("plan")})

	resp := postPath(t, url, "/v1/synthesize", body, "")
	raw := readAll(t, resp)
	if resp.StatusCode != http.StatusRequestEntityTooLarge || !strings.Contains(string(raw), "exceeds") {
		t.Errorf("oversized body answered %d: %s", resp.StatusCode, raw)
	}
	wantCounters(t, s, 0, 0, 1)
	// The key form is tiny and still works under the same cap.
	if a := ask(t, url, keyBody(key), ""); a.status != http.StatusOK || a.cache != "hit" {
		t.Errorf("key-only request under a small body cap: %d/%s", a.status, a.cache)
	}
}

// TestKeyOnlyServesDriftReplan: once a drift report has re-solved and
// swapped the entry, the same key serves the new plan under its new tag —
// the key names the request, not the bytes.
func TestKeyOnlyServesDriftReplan(t *testing.T) {
	s, url := newKeyFirstServer(t, Config{})
	c := testCluster()
	body := requestBody(t, testGraph(t), c, RequestOptions{})
	key := clientKey(testGraph(t), c, RequestOptions{})

	before := ask(t, url, body, "")
	wantPlan(t, "fill", before, "miss", testGraph(t))
	status, tr, raw := postTelemetry(t, url, telemetryBody(t, c, TelemetryRequest{
		Links:   []telemetry.LinkSample{{FromMachine: 0, ToMachine: 1, Bandwidth: c.Net.InterBW * 0.5}},
		Devices: []telemetry.DeviceSample{{Device: 0, TFLOPS: achievedTFLOPS(c, 0) * 0.5}},
	}))
	if status != http.StatusOK || tr.ReplansStarted != 1 {
		t.Fatalf("telemetry: status %d, %d replans started: %s", status, tr.ReplansStarted, raw)
	}
	after := ask(t, url, keyBody(key), before.etag)
	if after.status != http.StatusOK {
		t.Fatalf("revalidating the pre-drift tag after the report: status %d, want 200 with the swapped plan", after.status)
	}
	wantPlan(t, "key-only fetch after the swap", after, "hit", testGraph(t))
	if after.etag == before.etag || bytes.Equal(after.body, before.body) {
		t.Errorf("swap served the pre-drift plan (tag %q → %q)", before.etag, after.etag)
	}
	if a := ask(t, url, keyBody(key), after.etag); a.status != http.StatusNotModified {
		t.Errorf("revalidating the new tag by key: status %d, want 304", a.status)
	}
	// The full body agrees with the key.
	if a := ask(t, url, body, ""); a.etag != after.etag {
		t.Errorf("full body serves tag %q, the key %q", a.etag, after.etag)
	}
	if st := s.Stats(); st.Errors != 0 || st.CacheMisses != 1 {
		t.Errorf("errors/misses = %d/%d, want 0/1", st.Errors, st.CacheMisses)
	}
}

// TestKeyOnlyNeverProxies: on a fleet node that does not own the key, a bare
// key is answered from the local store or with need_body — never forwarded —
// while a full body that misses locally proxies to the owner, every time.
func TestKeyOnlyNeverProxies(t *testing.T) {
	nodes := newFleetTrio(t, nil)
	c := testCluster()
	body := requestBody(t, testGraph(t), c, RequestOptions{})
	key := clientKey(testGraph(t), c, RequestOptions{})
	// Three nodes, two copies: exactly one node holds neither.
	f := nodes[0].s.cfg.Fleet
	var owner, outsider *fleetNode
	for _, n := range nodes {
		switch {
		case n.url == f.Owner(key):
			owner = n
		case !slices.Contains(f.ReplicaSet(key), n.url):
			outsider = n
		}
	}

	wantPlan(t, "fill at the owner", ask(t, owner.url, body, ""), "miss", testGraph(t))
	wantNeedBody(t, "key at a node holding no copy", ask(t, outsider.url, keyBody(key), ""))
	if st := outsider.s.Stats(); st.Fleet.Proxied != 0 || st.CacheMisses != 0 || st.Errors != 0 {
		t.Errorf("after a bare key: proxied=%d misses=%d errors=%d, want 0/0/0", st.Fleet.Proxied, st.CacheMisses, st.Errors)
	}
	for i, what := range []string{"full body at that node", "repeat body at that node"} {
		wantPlan(t, what, ask(t, outsider.url, body, ""), "hit", testGraph(t))
		if st := outsider.s.Stats(); st.Fleet.Proxied != uint64(i+1) || st.Errors != 0 {
			t.Errorf("%s: proxied=%d errors=%d, want %d/0", what, st.Fleet.Proxied, st.Errors, i+1)
		}
	}
	for _, n := range nodes {
		if n != outsider {
			wantPlan(t, "key at a node holding a copy", ask(t, n.url, keyBody(key), ""), "hit", testGraph(t))
		}
		if st := n.s.Stats(); st.Errors != 0 {
			t.Errorf("node %s: errors = %d", n.url, st.Errors)
		}
	}
	if got := totalSyntheses(nodes); got != 1 {
		t.Errorf("fleet ran %d syntheses, want 1", got)
	}
}

// TestFastPathHitSpans: whether the key came from a key-only body or a
// decoded full one, a hit's trace shows one decode and one cache_lookup span
// and nothing of the miss pipeline; a need_body answer is labelled as such.
func TestFastPathHitSpans(t *testing.T) {
	_, url := newKeyFirstServer(t, Config{})
	c := testCluster()
	body := requestBody(t, testGraph(t), c, RequestOptions{})
	key := clientKey(testGraph(t), c, RequestOptions{})
	traceOf := func(b []byte) *obs.TraceRecord {
		resp := postPath(t, url, "/v1/synthesize", b, "")
		readAll(t, resp)
		return getTrace(t, url, resp.Header.Get(obs.TraceHeader))
	}

	if rec := traceOf(keyBody(key)); rec.Root().Attrs["cache"] != NeedBody || spanNames(rec)["flight"] != 0 {
		t.Errorf("need_body trace: cache attr %q, spans %v", rec.Root().Attrs["cache"], spanNames(rec))
	}
	traceOf(body) // the miss
	for what, b := range map[string][]byte{"full body": body, "key only": keyBody(key)} {
		rec := traceOf(b)
		assertWellFormed(t, rec)
		if n := spanNames(rec); n["decode"] != 1 || n["cache_lookup"] != 1 || n["flight"] != 0 || n["synthesize"] != 0 || len(rec.Spans) != 3 {
			t.Errorf("%s hit: spans %v, want exactly request, decode, cache_lookup", what, n)
		}
		if rec.Root().Attrs["cache"] != "hit" {
			t.Errorf("%s hit: root cache attr %q", what, rec.Root().Attrs["cache"])
		}
	}
}

// warmHitAllocCeiling bounds the allocations of one key-only hit served
// through Handler().ServeHTTP with tracing at its default (on), as the
// benchmark's daemon runs: request and recorder excluded, the trace, its
// three spans and the response headers included. Measured with go1.24: 39,
// one of them decodeRequest's (the key's string; through encoding/json the
// body cost 20 and the hit 60). A full-body hit decodes its graph by design
// and is not bounded here. The ceiling keeps the third of headroom the old
// one had over its 60: room for a Go release to move a few, not for a
// decode to reach the key-only path.
const warmHitAllocCeiling = 53

// warmHitServer fills a daemon, tracing at its default (on), with the plan of
// a model-sized request (~15 KB) and returns it with the full body and the
// key-only body that now hit.
func warmHitServer(tb testing.TB) (s *Server, full, keyOnly []byte) {
	tb.Helper()
	s = New(Config{})
	g := models.Training(models.VGG19(8, 32, 10))
	c := testCluster()
	full = requestBody(tb, g, c, RequestOptions{})
	if rr := serveHit(s.Handler(), full, new(bytes.Reader)); rr.Code != http.StatusOK || rr.Header().Get("X-HAP-Cache") != "miss" {
		tb.Fatalf("fill: %d %s", rr.Code, rr.Body)
	}
	return s, full, keyBody(clientKey(g, c, RequestOptions{}))
}

// serveHit posts b to h through Handler().ServeHTTP, asking for the binary
// plan as the client does; rd is reset to b, so a loop reuses one reader.
func serveHit(h http.Handler, b []byte, rd *bytes.Reader) *httptest.ResponseRecorder {
	rd.Reset(b)
	req := httptest.NewRequest(http.MethodPost, "/v1/synthesize", rd)
	req.Header.Set("Accept", BinaryPlanContentType)
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	return rr
}

func TestWarmHitAllocs(t *testing.T) {
	s, _, b := warmHitServer(t)
	h := s.Handler()
	var rd bytes.Reader
	// The request and the recorder are the caller's, not the handler's: their
	// cost is measured alone and subtracted.
	harness := testing.AllocsPerRun(200, func() {
		rd.Reset(b)
		req := httptest.NewRequest(http.MethodPost, "/v1/synthesize", &rd)
		req.Header.Set("Accept", BinaryPlanContentType)
		_ = httptest.NewRecorder()
		io.Copy(io.Discard, req.Body)
	})
	var last *httptest.ResponseRecorder
	total := testing.AllocsPerRun(200, func() { last = serveHit(h, b, &rd) })
	if last.Code != http.StatusOK || last.Header().Get("X-HAP-Cache") != "hit" {
		t.Fatalf("key only: answered %d (%s), want a hit", last.Code, last.Header().Get("X-HAP-Cache"))
	}
	if got := total - harness; got > warmHitAllocCeiling {
		t.Errorf("key-only hit: %.0f allocations in the handler, ceiling %d", got, warmHitAllocCeiling)
	} else {
		t.Logf("key-only hit: %.0f allocations in the handler (%.0f with the test's request and recorder)", got, total)
	}
	if st := s.Stats(); st.Errors != 0 || st.CacheMisses != 1 {
		t.Errorf("errors/misses = %d/%d, want 0/1", st.Errors, st.CacheMisses)
	}
}

// BenchmarkWarmHit times one hit through Handler().ServeHTTP with tracing on,
// the test's request and recorder included: "key_only" is the hit the Go
// client's key-first request gets, "full_body" the one a sender repeating a
// full body gets (hap-loadgen, curl, a fleet proxy's owner side), which
// decodes the body to derive its key.
func BenchmarkWarmHit(b *testing.B) {
	s, full, keyOnly := warmHitServer(b)
	h := s.Handler()
	for _, arm := range []struct {
		name string
		body []byte
	}{{"key_only", keyOnly}, {"full_body", full}} {
		b.Run(arm.name, func(b *testing.B) {
			var rd bytes.Reader
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if rr := serveHit(h, arm.body, &rd); rr.Code != http.StatusOK {
					b.Fatalf("answered %d: %s", rr.Code, rr.Body)
				}
			}
		})
	}
}

// Request is the body of POST /v1/synthesize as a struct for encoding/json:
// the tests marshal it, and parseRequest reads it.
type Request struct {
	Graph   json.RawMessage `json:"graph"`
	Cluster json.RawMessage `json:"cluster"`
	Options RequestOptions  `json:"options"`
	Key     string          `json:"key,omitempty"`
}

// parseRequest is decodeRequest's oracle: the envelope through
// encoding/json, then each payload by its own decoder (graph.DecodeBytes is
// held to encoding/json by FuzzGraphDecode).
func parseRequest(body []byte) (key string, in *planInput, err error) {
	var req Request
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
		return "", nil, err
	}
	absent := func(raw json.RawMessage) bool { return len(raw) == 0 || string(raw) == "null" }
	switch {
	case req.Options.Segments < 0:
		return "", nil, fmt.Errorf("options: segments (%d) must not be negative", req.Options.Segments)
	case req.Key != "" && absent(req.Graph) && absent(req.Cluster):
		return req.Key, nil, nil
	case absent(req.Graph) || absent(req.Cluster):
		return "", nil, errors.New("graph and cluster are required")
	}
	in = &planInput{opts: req.Options}
	if in.g, err = graph.DecodeBytes(req.Graph); err != nil {
		return "", nil, err
	}
	if in.c, err = cluster.Decode(bytes.NewReader(req.Cluster)); err != nil {
		return "", nil, err
	}
	return cacheKey(in.g, in.c, in.opts), in, nil
}

// members are the member names decodeRequest reads of an object, each with
// those of its own value (nil: read whole, as by another decoder).
type members map[string]members

var envelope = members{"graph": nil, "cluster": nil, "options": {"segments": nil}, "key": nil}

// refusedMember reports whether the JSON value body starts with names a
// member of the envelope or of its options twice, or in another case (by
// encoding/json's folding, strings.EqualFold). It walks encoding/json's
// tokens, so it sees the names encoding/json's decoder sees.
func refusedMember(body []byte) bool {
	dec := json.NewDecoder(bytes.NewReader(body))
	tok, err := dec.Token()
	found, _ := walkMembers(dec, tok, err, envelope)
	return found
}

// walkMembers reads the value tok starts, as known, and reports a refused
// member name in it; it stops at the first token error.
func walkMembers(dec *json.Decoder, tok json.Token, err error, known members) (found bool, _ error) {
	if err != nil {
		return false, err
	}
	switch tok {
	case json.Delim('{'):
		seen := map[string]bool{}
		for dec.More() && err == nil {
			if tok, err = dec.Token(); err != nil {
				break
			}
			name := tok.(string)
			sub, ok := known[name]
			found = found || seen[name]
			seen[name] = ok
			for k := range known {
				found = found || !ok && strings.EqualFold(name, k)
			}
			tok, err = dec.Token()
			var f bool
			f, err = walkMembers(dec, tok, err, sub)
			found = found || f
		}
	case json.Delim('['):
		for dec.More() && err == nil {
			tok, err = dec.Token()
			_, err = walkMembers(dec, tok, err, nil)
		}
	default:
		return false, nil
	}
	if err == nil {
		_, err = dec.Token() // the closing bracket
	}
	return found, err
}

// FuzzDecodeRequest: arbitrary /v1/synthesize bodies never panic the read.
// decodeRequest and its encoding/json oracle (parseRequest) agree on every
// body free of a refused member name: on the key, on the graph, cluster and
// options (reflect.DeepEqual) and on error-or-not; a body naming an
// envelope or options member twice or in another case is refused. A
// non-empty key with no graph and no cluster (absent or null) is answered
// by that key alone; a full body yields a graph and cluster whose
// re-encoding derives the same key; negative segments are refused whatever
// else the body carries, and the retired max_iterations and exact_search
// fields are ignored. Seeded with the wire contract's bodies, bodies in
// other member orders, spacing and escapes, and each refused spelling.
func FuzzDecodeRequest(f *testing.F) {
	g, c := testGraph(f), testCluster()
	for _, seed := range [][]byte{
		requestBody(f, g, c, RequestOptions{}),
		bytes.Replace(requestBody(f, g, c, RequestOptions{Segments: 2}),
			[]byte(`"options":{"segments":2}`), []byte(`"options":{"segments":2,"max_iterations":3,"exact_search":true}`), 1),
		requestBody(f, g, c, RequestOptions{Segments: -1}),
		requestBody(f, seedServeGraph(64, 96, 96, 112, 96, 96, 96, 32), altCluster(), RequestOptions{}),
		keyBody(clientKey(g, c, RequestOptions{})),
		keyBody("not-a-key"),
		[]byte(`{"key":"k","graph":null}`),
		[]byte(`{"key":"k","graph":null,"cluster":null,"options":{"max_iterations":-1}}`),
		[]byte(`{"cluster": {"version": 1}}`),
		[]byte("]["),
	} {
		f.Add(seed)
	}
	full := string(requestBody(f, g, c, RequestOptions{Segments: 2}))
	graphJSON := full[len(`{"graph":`):strings.Index(full, `,"cluster":`)]
	clusterJSON := full[strings.Index(full, `,"cluster":`)+len(`,"cluster":`) : strings.Index(full, `,"options":`)]
	for _, seed := range []string{
		`{"key":"k",` + full[1:],
		"\n{ \"options\" : {\"segments\":2} ,\t\"cluster\":" + clusterJSON + `,"graph":` + graphJSON + "}\n",
		strings.Replace(full, `"options":`, `"extra":[1,{"graph":null}],"options":`, 1),
		strings.Replace(full, `"cluster":{`, `"cluster":{"version":1,]`, 1),
		strings.Replace(full, `"graph":{"version":1`, `"graph":{"version":2`, 1),
		strings.Replace(full, `"segments":2`, `"segments":-2`, 1),
		strings.Replace(full, `"segments":2`, `"segments":1234567890123456789`, 1),
		strings.Replace(full, `"segments":2`, `"segments":1e400`, 1),
		strings.Replace(full, `"segments":2`, `"segments":null`, 1),
		strings.Replace(full, `"options":{"segments":2}`, `"options":null`, 1),
		strings.Replace(full, `"cluster":`+clusterJSON, `"cluster":null`, 1),
		strings.Replace(full, `"graph":`+graphJSON, `"key":"k","graph":null`, 1),
		strings.Replace(full, `{"graph":`, `{"gr\u0061ph":`, 1),
		`{"k\u0065y":"k"}`,
		`{"key":"k\u003a1"}`,
		`{"key":null}`,
		full + `garbage`,
		// The refused spellings, at graph, node, envelope and options level.
		strings.Replace(full, `"nodes":`, `"Nodes":`, 1),
		strings.Replace(full, `"loss":`, `"loss":null,"loss":`, 1),
		strings.Replace(full, `"batch_dim":`, `"BATCH_DIM":`, 1),
		strings.Replace(full, `"shape":[`, `"shape":[null,`, 1),
		strings.Replace(full, `"options":{"segments":2}`, `"options":{},"options":{"segments":2}`, 1),
		strings.Replace(full, `"options":`, `"Options":`, 1),
		strings.Replace(full, `"segments":2`, `"segments":2,"segments":3`, 1),
		strings.Replace(full, `"segments":2`, `"SEGMENTS":2`, 1),
		`{"key":"k","key":"k"}`,
		`{"Key":"k"}`,
		`{"\u212aey":"k"}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		key, in, err := decodeRequest(body)
		if err != nil {
			if key != "" || in != nil {
				t.Fatalf("rejected body answered key %q, input %v", key, in != nil)
			}
		} else if key == "" {
			t.Fatal("accepted body derived an empty key")
		}
		if refusedMember(body) {
			if err == nil {
				t.Fatal("a member named twice or in another case was accepted")
			}
			return
		}
		refKey, ref, refErr := parseRequest(body)
		if (err == nil) != (refErr == nil) || key != refKey || (in == nil) != (ref == nil) {
			t.Fatalf("one pass: key %q, input %v, err %v; encoding/json: key %q, input %v, err %v",
				key, in != nil, err, refKey, ref != nil, refErr)
		}
		if in != nil && !reflect.DeepEqual(in, ref) {
			t.Fatal("one pass and encoding/json decode different graphs, clusters or options")
		}

		var opts struct {
			Options struct {
				Segments int `json:"segments"`
			} `json:"options"`
		}
		if json.NewDecoder(bytes.NewReader(body)).Decode(&opts) == nil && opts.Options.Segments < 0 && err == nil {
			t.Fatalf("options %+v accepted", opts.Options)
		}

		if in == nil {
			return
		}
		if want := cacheKey(in.g, in.c, in.opts); key != want {
			t.Fatalf("key %q, want %q from the decoded input", key, want)
		}
		again, in2, err := decodeRequest(requestBody(t, in.g, in.c, in.opts))
		if err != nil || in2 == nil {
			t.Fatalf("re-encoded body: input %v, err %v", in2 != nil, err)
		}
		if again != key {
			t.Fatalf("re-encoded body keys %q, want %q", again, key)
		}
	})
}
