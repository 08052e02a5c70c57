// Tests for wire protocol v2: the versioned endpoints, the structured error
// envelopes, binary content negotiation, batch coalescing, and disk
// persistence of the plan cache.

package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hap"
	"hap/internal/cluster"
	"hap/internal/dist"
	"hap/internal/graph"
)

// postPath posts a body to an arbitrary endpoint with optional Accept.
func postPath(t *testing.T, url, path string, body []byte, accept string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+path, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func readAll(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestV1SynthesizeAndErrorEnvelope: the versioned endpoint serves verifiable
// plans and answers failures with the {code, message} envelope.
func TestV1SynthesizeAndErrorEnvelope(t *testing.T) {
	s := New(Config{})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	c := testCluster()
	body := requestBody(t, testGraph(t), c, RequestOptions{})

	resp := postPath(t, srv.URL, "/v1/synthesize", body, "")
	plan := readAll(t, resp)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-HAP-Cache") != "miss" {
		t.Fatalf("v1 first request: status %d cache %q: %s", resp.StatusCode, resp.Header.Get("X-HAP-Cache"), plan)
	}
	g2 := testGraph(t)
	p, err := hap.ReadProgram(bytes.NewReader(plan), g2)
	if err != nil {
		t.Fatalf("ReadProgram on v1 plan: %v", err)
	}
	if err := hap.Verify(p, c.M(), 7); err != nil {
		t.Errorf("v1 plan fails verification: %v", err)
	}

	// Errors carry the structured envelope with the right code.
	cases := []struct {
		name     string
		body     string
		wantCode string
		wantHTTP int
	}{
		{"not json", "][", CodeBadRequest, http.StatusBadRequest},
		{"missing cluster", `{"graph": {"version": 1}}`, CodeBadRequest, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := postPath(t, srv.URL, "/v1/synthesize", []byte(tc.body), "")
			raw := readAll(t, resp)
			if resp.StatusCode != tc.wantHTTP {
				t.Errorf("status = %d, want %d", resp.StatusCode, tc.wantHTTP)
			}
			if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
				t.Errorf("error Content-Type = %q, want application/json", ct)
			}
			var env ErrorEnvelope
			if err := json.Unmarshal(raw, &env); err != nil {
				t.Fatalf("error body %q is not an envelope: %v", raw, err)
			}
			if env.Code != tc.wantCode || env.Message == "" {
				t.Errorf("envelope = %+v, want code %q with a message", env, tc.wantCode)
			}
		})
	}

	// Method errors are enveloped too.
	resp, err = http.Get(srv.URL + "/v1/synthesize")
	if err != nil {
		t.Fatal(err)
	}
	raw := readAll(t, resp)
	var env ErrorEnvelope
	if resp.StatusCode != http.StatusMethodNotAllowed || json.Unmarshal(raw, &env) != nil || env.Code != CodeMethodNotAllowed {
		t.Errorf("GET /v1/synthesize = %d %q, want 405 with %q envelope", resp.StatusCode, raw, CodeMethodNotAllowed)
	}
}

// TestNegativeOptionsRejected: segments and max_iterations come off the wire,
// so a negative one must be answered 400 bad_request by the decoder — on the
// single and batch bodies — before a cache key exists: nothing is
// looked up, counted as a miss, or handed to the planner (where a negative
// iteration bound used to nil-dereference).
func TestNegativeOptionsRejected(t *testing.T) {
	s := New(Config{Synthesize: func(context.Context, *graph.Graph, *cluster.Cluster, hap.Options) (*hap.Plan, error) {
		t.Error("a request with negative options reached the planner")
		return nil, errors.New("unreachable")
	}})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	g, c := testGraph(t), testCluster()
	// requestBody marshals RequestOptions, which has no encoder of its own:
	// negative values go out as written.
	for _, opt := range []RequestOptions{{MaxIterations: -1}, {Segments: -1}} {
		for path, body := range map[string][]byte{
			"/v1/synthesize":       requestBody(t, g, c, opt),
			"/v1/synthesize/batch": batchBody(t, g, []*cluster.Cluster{c}, opt),
		} {
			resp := postPath(t, srv.URL, path, body, "")
			raw := readAll(t, resp)
			if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(raw), "must not be negative") {
				t.Errorf("%s with %+v: status %d body %q, want 400 naming the option", path, opt, resp.StatusCode, raw)
			}
			var env ErrorEnvelope
			if json.Unmarshal(raw, &env) != nil || env.Code != CodeBadRequest {
				t.Errorf("%s with %+v: body %q is not a %s envelope", path, opt, raw, CodeBadRequest)
			}
		}
	}
	if st := s.Stats(); st.CacheMisses != 0 || st.Syntheses != 0 || st.Errors != 4 {
		t.Errorf("stats after 4 rejected requests: misses %d syntheses %d errors %d, want 0/0/4", st.CacheMisses, st.Syntheses, st.Errors)
	}
}

// TestBinaryContentNegotiation: Accept: application/x-hap-plan returns the
// compact binary payload; its program section decodes with dist.DecodeBinary
// and is byte-identical to the JSON-path program. Cache hits negotiate too.
func TestBinaryContentNegotiation(t *testing.T) {
	srv := httptest.NewServer(New(Config{}).Handler())
	defer srv.Close()
	c := testCluster()
	body := requestBody(t, testGraph(t), c, RequestOptions{})

	// JSON path first (also warms the cache).
	resp := postPath(t, srv.URL, "/v1/synthesize", body, "")
	jsonPlan := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("JSON request: status %d: %s", resp.StatusCode, jsonPlan)
	}
	gJSON := testGraph(t)
	pJSON, err := hap.ReadProgram(bytes.NewReader(jsonPlan), gJSON)
	if err != nil {
		t.Fatal(err)
	}

	// Binary path: a cache hit, negotiated via Accept.
	resp = postPath(t, srv.URL, "/v1/synthesize", body, BinaryPlanContentType+", application/json;q=0.5")
	binPlan := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("binary request: status %d: %s", resp.StatusCode, binPlan)
	}
	if ct := resp.Header.Get("Content-Type"); ct != BinaryPlanContentType {
		t.Fatalf("binary Content-Type = %q, want %q", ct, BinaryPlanContentType)
	}
	if resp.Header.Get("X-HAP-Cache") != "hit" {
		t.Errorf("binary request missed the cache; negotiation must not fork the content address")
	}
	if len(binPlan) >= len(jsonPlan) {
		t.Errorf("binary payload (%d bytes) not smaller than JSON (%d bytes)", len(binPlan), len(jsonPlan))
	}

	// The raw payload's program section is a plain dist binary program…
	gBin := testGraph(t)
	prog, err := dist.DecodeBinary(bytes.NewReader(binPlan), gBin)
	if err != nil {
		t.Fatalf("DecodeBinary on response body: %v", err)
	}
	var wantProg, gotProg bytes.Buffer
	if err := pJSON.Program.Encode(&wantProg); err != nil {
		t.Fatal(err)
	}
	if err := prog.Encode(&gotProg); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wantProg.Bytes(), gotProg.Bytes()) {
		t.Error("binary program differs from the JSON-path program")
	}

	// …and the full payload reconstructs the complete plan.
	pBin, err := hap.ReadProgramBinary(bytes.NewReader(binPlan), testGraph(t))
	if err != nil {
		t.Fatalf("ReadProgramBinary: %v", err)
	}
	if err := hap.Verify(pBin, c.M(), 13); err != nil {
		t.Errorf("binary plan fails verification: %v", err)
	}
	if pBin.Cost != pJSON.Cost {
		t.Errorf("binary plan cost %v != JSON plan cost %v", pBin.Cost, pJSON.Cost)
	}
}

// batchBody assembles a /v1/synthesize/batch request.
func batchBody(t *testing.T, g *graph.Graph, clusters []*cluster.Cluster, opt RequestOptions) []byte {
	t.Helper()
	var gb bytes.Buffer
	if err := g.Encode(&gb); err != nil {
		t.Fatal(err)
	}
	raws := make([]json.RawMessage, len(clusters))
	for i, c := range clusters {
		var cb bytes.Buffer
		if err := c.Encode(&cb); err != nil {
			t.Fatal(err)
		}
		raws[i] = append(json.RawMessage(nil), cb.Bytes()...)
	}
	body, err := json.Marshal(BatchRequest{Graph: gb.Bytes(), Clusters: raws, Options: opt})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestBatchCoalescing: a batch of N clusters for one graph searches each
// distinct cluster once, returns one valid plan per cluster (identical to the
// single-endpoint plan), and caches every entry.
func TestBatchCoalescing(t *testing.T) {
	s := New(Config{})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	clusters := []*cluster.Cluster{
		testCluster(),
		cluster.FromGPUs(cluster.DefaultNetwork(),
			cluster.MachineSpec{Type: cluster.A100, GPUs: 1},
			cluster.MachineSpec{Type: cluster.P100, GPUs: 1}),
		testCluster(), // duplicate of the first: one search, answered twice
	}
	body := batchBody(t, testGraph(t), clusters, RequestOptions{})

	resp := postPath(t, srv.URL, "/v1/synthesize/batch", body, "")
	raw := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: status %d: %s", resp.StatusCode, raw)
	}

	var br BatchResponse
	if err := json.Unmarshal(raw, &br); err != nil {
		t.Fatalf("decode batch response: %v", err)
	}
	if len(br.Plans) != len(clusters) {
		t.Fatalf("batch returned %d plans for %d clusters", len(br.Plans), len(clusters))
	}
	for i, bp := range br.Plans {
		if bp.Cache != "miss" {
			t.Errorf("plan %d cache = %q, want miss on a cold server", i, bp.Cache)
		}
		p, err := hap.ReadProgram(bytes.NewReader(bp.Plan), testGraph(t))
		if err != nil {
			t.Fatalf("plan %d: %v", i, err)
		}
		if err := hap.Verify(p, clusters[i].M(), int64(3+i)); err != nil {
			t.Errorf("plan %d fails verification: %v", i, err)
		}
	}
	// The duplicate cluster received the same plan without a second search.
	if !bytes.Equal(br.Plans[0].Plan, br.Plans[2].Plan) {
		t.Error("duplicate clusters in one batch got different plans")
	}
	if st := s.Stats(); st.Syntheses != 2 {
		t.Errorf("batch ran %d syntheses, want 2 (3 clusters, 1 duplicate)", st.Syntheses)
	}

	// A batch plan equals the single-endpoint plan for the same cluster
	// (modulo whitespace: marshalling the batch response compacts the
	// embedded RawMessage).
	single := requestBody(t, testGraph(t), clusters[1], RequestOptions{})
	resp = postPath(t, srv.URL, "/v1/synthesize", single, "")
	singlePlan := readAll(t, resp)
	if resp.Header.Get("X-HAP-Cache") != "hit" {
		t.Errorf("single request after batch missed the cache")
	}
	var compactSingle, compactBatch bytes.Buffer
	if err := json.Compact(&compactSingle, singlePlan); err != nil {
		t.Fatal(err)
	}
	if err := json.Compact(&compactBatch, br.Plans[1].Plan); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(compactSingle.Bytes(), compactBatch.Bytes()) {
		t.Error("batch plan differs from the single-endpoint plan for the same cluster")
	}

	// Re-running the whole batch is all hits, no new synthesis.
	resp = postPath(t, srv.URL, "/v1/synthesize/batch", body, "")
	raw = readAll(t, resp)
	if err := json.Unmarshal(raw, &br); err != nil {
		t.Fatal(err)
	}
	for i, bp := range br.Plans {
		if bp.Cache != "hit" {
			t.Errorf("repeat batch plan %d cache = %q, want hit", i, bp.Cache)
		}
	}
	if st := s.Stats(); st.Syntheses != 2 {
		t.Errorf("repeat batch re-synthesized (total %d, want 2)", st.Syntheses)
	}
}

// A batch where one cluster fails (e.g. starved under its budget) still
// caches the plans that completed: the request errors, but a retry — or a
// single request for a finished cluster — does not re-pay its work.
func TestBatchPartialFailureCachesSuccesses(t *testing.T) {
	g := testGraph(t)
	starvedFP := altCluster().Fingerprint()
	s := New(Config{
		Synthesize: func(ctx context.Context, gr *graph.Graph, c *cluster.Cluster, opt hap.Options) (*hap.Plan, error) {
			if c.Fingerprint() == starvedFP {
				return nil, errors.New("cluster 2 starved")
			}
			return hap.NewPlanner(c, hap.WithOptions(opt)).Plan(ctx, gr)
		},
	})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	clusters := []*cluster.Cluster{testCluster(), altCluster()}

	resp := postPath(t, srv.URL, "/v1/synthesize/batch", batchBody(t, g, clusters, RequestOptions{}), "")
	raw := readAll(t, resp)
	var env ErrorEnvelope
	if resp.StatusCode != http.StatusUnprocessableEntity || json.Unmarshal(raw, &env) != nil || env.Code != CodeSynthesisFailed {
		t.Fatalf("partial batch = %d %q, want 422 synthesis_failed envelope", resp.StatusCode, raw)
	}

	// The cluster that completed is cached: a single request hits.
	resp = postPath(t, srv.URL, "/v1/synthesize", requestBody(t, testGraph(t), clusters[0], RequestOptions{}), "")
	readAll(t, resp)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-HAP-Cache") != "hit" {
		t.Errorf("completed cluster after failed batch: status %d cache %q, want 200/hit",
			resp.StatusCode, resp.Header.Get("X-HAP-Cache"))
	}
}

// TestBatchMissesSeedAndJoin: a batch miss is a single miss, so it gets what
// a single miss gets — (a) a donor: with a base graph cached on two clusters,
// a batch for a near-variant seeds every one of its searches; (b) the flight:
// a batch and a single request naming the same cold key share one search.
func TestBatchMissesSeedAndJoin(t *testing.T) {
	t.Run("seed", func(t *testing.T) {
		s := New(Config{})
		srv := httptest.NewServer(s.Handler())
		defer srv.Close()
		clusters := []*cluster.Cluster{testCluster(), altCluster()}
		batch := func(g *graph.Graph) (seeded uint64) {
			t.Helper()
			before := s.Stats().SynthIncremental
			resp := postPath(t, srv.URL, "/v1/synthesize/batch", batchBody(t, g, clusters, RequestOptions{}), "")
			if raw := readAll(t, resp); resp.StatusCode != http.StatusOK {
				t.Fatalf("batch: status %d: %.120s", resp.StatusCode, raw)
			}
			return s.Stats().SynthIncremental - before
		}
		// A donor shares its target's cluster, so the base batch's siblings
		// cannot seed each other; each of the variant's misses finds the base
		// plan on its own cluster.
		if n := batch(seedServeGraph(64, 96, 96, 96, 96, 96, 96, 32)); n != 0 {
			t.Errorf("base batch seeded %d searches on an empty cache", n)
		}
		if n := batch(seedServeGraph(64, 96, 96, 112, 96, 96, 96, 32)); n != uint64(len(clusters)) {
			t.Errorf("near-variant batch seeded %d of its %d searches", n, len(clusters))
		}
	})

	t.Run("join", func(t *testing.T) {
		held := testCluster()
		heldFP := held.Fingerprint()
		var heldCalls atomic.Int64
		started, release := make(chan struct{}), make(chan struct{})
		s := New(Config{Synthesize: func(ctx context.Context, g *graph.Graph, c *cluster.Cluster, opt hap.Options) (*hap.Plan, error) {
			if c.Fingerprint() == heldFP {
				if heldCalls.Add(1) == 1 {
					close(started)
				}
				select {
				case <-release:
				case <-ctx.Done():
					return nil, ctx.Err()
				}
			}
			return planWith(g, c, opt)
		}})
		srv := httptest.NewServer(s.Handler())
		defer srv.Close()
		g := testGraph(t)
		key := cacheKey(g, held, RequestOptions{})

		statuses := make(chan int, 2)
		go func() {
			status, _, _ := post(t, srv.URL, requestBody(t, g, held, RequestOptions{}))
			statuses <- status
		}()
		<-started
		go func() {
			resp := postPath(t, srv.URL, "/v1/synthesize/batch", batchBody(t, g, []*cluster.Cluster{held, altCluster()}, RequestOptions{}), "")
			readAll(t, resp)
			statuses <- resp.StatusCode
		}()
		// Release the search only once the batch's miss is waiting on it.
		joined := false
		for deadline := time.Now().Add(10 * time.Second); !joined && time.Now().Before(deadline); time.Sleep(time.Millisecond) {
			s.flight.mu.Lock()
			call := s.flight.m[key]
			s.flight.mu.Unlock()
			if call != nil {
				call.mu.Lock()
				joined = call.refs == 2
				call.mu.Unlock()
			}
		}
		close(release)
		if !joined {
			t.Error("the batch's miss never joined the single request's flight")
		}
		for i := 0; i < 2; i++ {
			if status := <-statuses; status != http.StatusOK {
				t.Errorf("status %d, want 200 for the single request and the batch alike", status)
			}
		}
		if n := heldCalls.Load(); n != 1 {
			t.Errorf("%d planner calls for the shared key, want 1", n)
		}
		if st := s.Stats(); st.FlightShared < 1 {
			t.Errorf("flight_shared = %d, want the batch's miss counted as a joiner", st.FlightShared)
		}
	})
}

// TestCachePersistence: with CacheDir set, plans survive a server restart —
// the second server reports the restored count and serves hits without
// re-synthesizing.
func TestCachePersistence(t *testing.T) {
	dir := t.TempDir()
	syntheses := 0
	count := func(ctx context.Context, g *graph.Graph, c *cluster.Cluster, opt hap.Options) (*hap.Plan, error) {
		syntheses++
		return hap.NewPlanner(c, hap.WithOptions(opt)).Plan(ctx, g)
	}

	s1 := New(Config{CacheDir: dir, Synthesize: count})
	srv1 := httptest.NewServer(s1.Handler())
	c := testCluster()
	body := requestBody(t, testGraph(t), c, RequestOptions{})
	status, _, plan1 := post(t, srv1.URL, body)
	if status != http.StatusOK {
		t.Fatalf("first server: status %d: %s", status, plan1)
	}
	srv1.Close()
	if syntheses != 1 {
		t.Fatalf("first server ran %d syntheses, want 1", syntheses)
	}
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) != 1 {
		t.Fatalf("cache dir holds %d files (err %v), want 1", len(entries), err)
	}

	// A fresh server over the same directory restores the plan…
	s2 := New(Config{CacheDir: dir, Synthesize: count})
	srv2 := httptest.NewServer(s2.Handler())
	defer srv2.Close()
	if st := s2.Stats(); st.CacheRestored != 1 || st.CacheEntries != 1 {
		t.Errorf("restarted server stats = restored %d, entries %d, want 1/1", st.CacheRestored, st.CacheEntries)
	}
	status, cacheHdr, plan2 := post(t, srv2.URL, body)
	if status != http.StatusOK || cacheHdr != "hit" {
		t.Fatalf("restarted server: status %d cache %q, want 200/hit", status, cacheHdr)
	}
	if syntheses != 1 {
		t.Errorf("restarted server re-synthesized (%d total)", syntheses)
	}
	if !bytes.Equal(plan1, plan2) {
		t.Error("restored plan differs from the original")
	}

	// …including the binary form for content negotiation.
	resp := postPath(t, srv2.URL, "/v1/synthesize", body, BinaryPlanContentType)
	bin := readAll(t, resp)
	if ct := resp.Header.Get("Content-Type"); ct != BinaryPlanContentType {
		t.Fatalf("restored binary Content-Type = %q", ct)
	}
	if _, err := hap.ReadProgramBinary(bytes.NewReader(bin), testGraph(t)); err != nil {
		t.Errorf("restored binary plan: %v", err)
	}

	// Stats and /metrics surface the restored count.
	if st := s2.Stats(); st.CacheRestored != 1 {
		t.Errorf("CacheRestored = %d, want 1", st.CacheRestored)
	}
}

// TestMetricsV2 checks the per-endpoint request counters in the exposition.
func TestMetricsV2(t *testing.T) {
	s := New(Config{})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	body := requestBody(t, testGraph(t), testCluster(), RequestOptions{})
	if status, _, b := post(t, srv.URL, body); status != http.StatusOK {
		t.Fatalf("first request: %d: %s", status, b)
	}
	resp := postPath(t, srv.URL, "/v1/synthesize", body, "") // cache hit
	readAll(t, resp)

	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics := string(readAll(t, mresp))
	for _, want := range []string{
		`hap_serve_requests_by_endpoint_total{endpoint="v1"} 2`,
		`hap_serve_requests_by_endpoint_total{endpoint="v1_batch"} 0`,
		"# TYPE hap_serve_cache_restored gauge",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}
}
