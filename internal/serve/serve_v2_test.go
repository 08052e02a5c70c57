// Tests for wire protocol v2: the versioned endpoints, the structured error
// envelopes, the one plan answer encoding, a caller's K clusters as K
// requests, and disk persistence of the plan cache.

package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hap"
	"hap/internal/cluster"
	"hap/internal/dist"
	"hap/internal/fleet"
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
	p, err := hap.ReadProgramBinary(bytes.NewReader(plan), g2)
	if err != nil {
		t.Fatalf("ReadProgramBinary on v1 plan: %v", err)
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

// TestNegativeOptionsRejected: segments come off the wire, so a negative
// count must be answered 400 bad_request by the decoder before a cache key
// exists: nothing is looked up, counted as a miss, or handed to the planner.
func TestNegativeOptionsRejected(t *testing.T) {
	s := New(Config{Synthesize: func(context.Context, *graph.Graph, *cluster.Cluster, hap.Options) (*hap.Plan, error) {
		t.Error("a request with negative options reached the planner")
		return nil, errors.New("unreachable")
	}})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	g, c := testGraph(t), testCluster()
	// requestBody marshals RequestOptions, which has no encoder of its own:
	// a negative value goes out as written.
	status, _, raw := post(t, srv.URL, requestBody(t, g, c, RequestOptions{Segments: -1}))
	if status != http.StatusBadRequest || !strings.Contains(string(raw), "segments (-1) must not be negative") {
		t.Errorf("status %d body %q, want 400 naming segments", status, raw)
	}
	var env ErrorEnvelope
	if json.Unmarshal(raw, &env) != nil || env.Code != CodeBadRequest {
		t.Errorf("body %q is not a %s envelope", raw, CodeBadRequest)
	}
	if st := s.Stats(); st.CacheMisses != 0 || st.Syntheses != 0 || st.Errors != 1 {
		t.Errorf("stats after a rejected request: misses %d syntheses %d errors %d, want 0/0/1", st.CacheMisses, st.Syntheses, st.Errors)
	}
}

// TestBinaryContentNegotiation: negotiation has one outcome — every plan
// answer is the binary payload, whatever Accept says (RFC 9110 §12.5.1 lets
// an origin server disregard it). A request asking for the binary type and
// one with no Accept share the content address: the second is a hit with the
// same bytes and tag. The payload's program section is a plain dist binary
// program, identical to the program of the plan the whole payload
// reconstructs, and that plan verifies.
func TestBinaryContentNegotiation(t *testing.T) {
	srv := httptest.NewServer(New(Config{}).Handler())
	defer srv.Close()
	c := testCluster()
	body := requestBody(t, testGraph(t), c, RequestOptions{})

	var first []byte
	for i, accept := range []string{BinaryPlanContentType + ", application/json;q=0.5", ""} {
		resp := postPath(t, srv.URL, "/v1/synthesize", body, accept)
		bin := readAll(t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("Accept %q: status %d: %s", accept, resp.StatusCode, bin)
		}
		if ct := resp.Header.Get("Content-Type"); ct != BinaryPlanContentType {
			t.Errorf("Accept %q: Content-Type = %q, want %q", accept, ct, BinaryPlanContentType)
		}
		if tag := resp.Header.Get("ETag"); tag != ETagFor(bin) {
			t.Errorf("Accept %q: ETag %s, want the hash of the binary bytes %s", accept, tag, ETagFor(bin))
		}
		want := "hit"
		if i == 0 {
			want, first = "miss", bin
		}
		if got := resp.Header.Get("X-HAP-Cache"); got != want || !bytes.Equal(bin, first) {
			t.Errorf("Accept %q: cache %q, same bytes as the first answer %v; want %s and true", accept, got, bytes.Equal(bin, first), want)
		}
	}

	prog, err := dist.DecodeBinary(bytes.NewReader(first), testGraph(t))
	if err != nil {
		t.Fatalf("DecodeBinary on the response body: %v", err)
	}
	p, err := hap.ReadProgramBinary(bytes.NewReader(first), testGraph(t))
	if err != nil {
		t.Fatalf("ReadProgramBinary: %v", err)
	}
	var wantProg, gotProg bytes.Buffer
	if err := p.Program.Encode(&wantProg); err != nil {
		t.Fatal(err)
	}
	if err := prog.Encode(&gotProg); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wantProg.Bytes(), gotProg.Bytes()) {
		t.Error("the payload's program section differs from the reconstructed plan's program")
	}
	if err := hap.Verify(p, c.M(), 13); err != nil {
		t.Errorf("binary plan fails verification: %v", err)
	}
}

// TestAcceptQZero: a q of zero on the binary type once meant "answer in
// JSON" (RFC 9110 §12.4.2). The daemon has one plan encoding, so every
// Accept value — q=0 and its spellings included — gets the same binary
// answer, served from the one cache entry after the first request.
func TestAcceptQZero(t *testing.T) {
	srv := httptest.NewServer(New(Config{}).Handler())
	defer srv.Close()
	body := requestBody(t, testGraph(t), testCluster(), RequestOptions{})

	var first []byte
	for i, accept := range []string{
		"",
		"application/json",
		"*/*",
		BinaryPlanContentType,
		BinaryPlanContentType + ", application/json",
		BinaryPlanContentType + ";q=0.5",
		BinaryPlanContentType + "; q=0.001",
		"application/json;q=0, " + BinaryPlanContentType,
		"application/json, " + BinaryPlanContentType + ";q=0",
		BinaryPlanContentType + "; q=0.000",
		BinaryPlanContentType + ";Q=0",
		BinaryPlanContentType + ";v=1;q=0",
	} {
		resp := postPath(t, srv.URL, "/v1/synthesize", body, accept)
		bin := readAll(t, resp)
		if ct := resp.Header.Get("Content-Type"); resp.StatusCode != http.StatusOK || ct != BinaryPlanContentType {
			t.Fatalf("Accept %q: status %d Content-Type %q, want 200 %s", accept, resp.StatusCode, ct, BinaryPlanContentType)
		}
		want := "hit"
		if i == 0 {
			want, first = "miss", bin
		}
		if got := resp.Header.Get("X-HAP-Cache"); got != want || !bytes.Equal(bin, first) {
			t.Errorf("Accept %q: cache %q, same bytes as the first answer %v; want %s and true", accept, got, bytes.Equal(bin, first), want)
		}
	}
	if _, err := hap.ReadProgramBinary(bytes.NewReader(first), testGraph(t)); err != nil {
		t.Errorf("binary answer does not decode: %v", err)
	}
}

// TestBatchCoalescing: a caller with K clusters for one graph makes K
// requests. Each distinct cluster is searched once — the duplicate's body is
// a repeat, served from cache — every plan verifies, and the caller's next
// round, asked key-first, is all hits with no graph uploaded.
func TestBatchCoalescing(t *testing.T) {
	s := New(Config{})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	g := testGraph(t)
	clusters := []*cluster.Cluster{testCluster(), altCluster(), testCluster()}
	plans := make([][]byte, len(clusters))
	for i, c := range clusters {
		status, cache, plan := post(t, srv.URL, requestBody(t, g, c, RequestOptions{}))
		if status != http.StatusOK {
			t.Fatalf("cluster %d: status %d: %s", i, status, plan)
		}
		want := "miss"
		if i == 2 {
			want = "hit" // the duplicate
		}
		if cache != want {
			t.Errorf("cluster %d cache = %q, want %s", i, cache, want)
		}
		p, err := hap.ReadProgramBinary(bytes.NewReader(plan), testGraph(t))
		if err != nil {
			t.Fatalf("plan %d: %v", i, err)
		}
		if err := hap.Verify(p, clusters[i].M(), int64(3+i)); err != nil {
			t.Errorf("plan %d fails verification: %v", i, err)
		}
		plans[i] = plan
	}
	if !bytes.Equal(plans[0], plans[2]) {
		t.Error("the duplicate cluster got a different plan")
	}
	if st := s.Stats(); st.Syntheses != 2 {
		t.Errorf("%d syntheses for 3 clusters with 1 duplicate, want 2", st.Syntheses)
	}

	for i, c := range clusters {
		status, cache, plan := post(t, srv.URL, keyBody(clientKey(g, c, RequestOptions{})))
		if status != http.StatusOK || cache != "hit" || !bytes.Equal(plan, plans[i]) {
			t.Errorf("key-first repeat %d: status %d cache %q, same plan %v; want 200/hit/true", i, status, cache, bytes.Equal(plan, plans[i]))
		}
	}
	if st := s.Stats(); st.Syntheses != 2 || st.CacheHits != 4 {
		t.Errorf("after the key-first round: %d syntheses, %d hits; want 2/4", st.Syntheses, st.CacheHits)
	}
}

// TestBatchMissesSeedAndJoin: a caller's K clusters are K single misses, each
// with what a miss gets — (a) a donor: with a base graph cached on two
// clusters, a near-variant's miss on each cluster seeds from the base plan on
// that cluster; (b) the flight: a key-first caller naming a key whose search
// is running is told need_body, and its full request joins that search.
func TestBatchMissesSeedAndJoin(t *testing.T) {
	t.Run("seed", func(t *testing.T) {
		s := New(Config{})
		srv := httptest.NewServer(s.Handler())
		defer srv.Close()
		clusters := []*cluster.Cluster{testCluster(), altCluster()}
		round := func(g *graph.Graph) (seeded uint64) {
			t.Helper()
			before := s.Stats().SynthIncremental
			for _, c := range clusters {
				if status, _, raw := post(t, srv.URL, requestBody(t, g, c, RequestOptions{})); status != http.StatusOK {
					t.Fatalf("status %d: %.120s", status, raw)
				}
			}
			return s.Stats().SynthIncremental - before
		}
		// A donor shares its target's cluster, so the base graph's plans
		// cannot seed each other; each of the variant's misses finds the base
		// plan on its own cluster.
		if n := round(seedServeGraph(64, 96, 96, 96, 96, 96, 96, 32)); n != 0 {
			t.Errorf("base graph seeded %d searches on an empty cache", n)
		}
		if n := round(seedServeGraph(64, 96, 96, 112, 96, 96, 96, 32)); n != uint64(len(clusters)) {
			t.Errorf("near-variant seeded %d of its %d searches", n, len(clusters))
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
		body := requestBody(t, g, held, RequestOptions{})

		statuses := make(chan int, 2)
		send := func() {
			resp, err := http.Post(srv.URL+"/v1/synthesize", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				statuses <- 0
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			statuses <- resp.StatusCode
		}
		go send()
		<-started
		if status, cache, raw := post(t, srv.URL, keyBody(key)); status != http.StatusOK || cache != NeedBody {
			t.Fatalf("key-only request during the search: status %d cache %q: %s", status, cache, raw)
		}
		go send()
		// Release the search only once the second miss is waiting on it.
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
			t.Error("the second caller's miss never joined the first one's flight")
		}
		for i := 0; i < 2; i++ {
			if status := <-statuses; status != http.StatusOK {
				t.Errorf("status %d, want 200 for both callers", status)
			}
		}
		if n := heldCalls.Load(); n != 1 {
			t.Errorf("%d planner calls for the shared key, want 1", n)
		}
		if st := s.Stats(); st.FlightShared != 1 {
			t.Errorf("flight_shared = %d, want the second miss counted as a joiner", st.FlightShared)
		}
	})
}

// TestCachePersistence: with CacheDir set, plans survive a server restart —
// the second server reports the restored count and serves hits without
// re-synthesizing. The file holds the binary payload the first server
// served, and the restored cache's bytes are that payload's length.
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
	file, err := os.ReadFile(filepath.Join(dir, entries[0].Name()))
	if err != nil {
		t.Fatal(err)
	}
	if e, err := fleet.DecodeEntry(file); err != nil || !bytes.Equal(e.Bin, plan1) {
		t.Fatalf("plan file does not hold the served payload: %v", err)
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
	if _, err := hap.ReadProgramBinary(bytes.NewReader(plan2), testGraph(t)); err != nil {
		t.Errorf("restored plan: %v", err)
	}

	// Stats and /metrics surface the restored count and the payload bytes.
	if st := s2.Stats(); st.CacheRestored != 1 || st.CacheBytes != int64(len(plan1)) {
		t.Errorf("CacheRestored = %d, CacheBytes = %d; want 1 and the payload's %d", st.CacheRestored, st.CacheBytes, len(plan1))
	}
	mresp, err := http.Get(srv2.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("hap_serve_cache_bytes %d\n", len(plan1)); !strings.Contains(string(readAll(t, mresp)), want) {
		t.Errorf("/metrics lacks %q", want)
	}
}

// TestMetricsV2 checks the per-endpoint request count in the exposition: the
// latency histogram's sample count, which every request adds to.
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
		`hap_serve_request_seconds_count{endpoint="v1"} 2`,
		"# TYPE hap_serve_cache_restored gauge",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}
}

// TestBatchEndpointGone: a caller with K clusters makes K /v1/synthesize
// requests; the batch path is not routed — the mux answers 404, counted on
// no endpoint — and /metrics carries no series for it.
func TestBatchEndpointGone(t *testing.T) {
	s := New(Config{})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	resp := postPath(t, srv.URL, "/v1/synthesize/batch", []byte(`{"graph": {}, "clusters": [{}]}`), "")
	if b := readAll(t, resp); resp.StatusCode != http.StatusNotFound {
		t.Errorf("POST /v1/synthesize/batch = %d (%s), want the mux's 404", resp.StatusCode, b)
	}
	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics := string(readAll(t, mresp))
	if strings.Contains(metrics, "v1_batch") {
		t.Error("/metrics still exposes v1_batch series")
	}
	if !strings.Contains(metrics, `hap_serve_request_seconds_count{endpoint="v1"} 0`) {
		t.Error("/metrics lacks the v1 request count at 0")
	}
}
