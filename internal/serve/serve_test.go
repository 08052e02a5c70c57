package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"hap"
	"hap/internal/cluster"
	"hap/internal/fleet"
	"hap/internal/graph"
)

// testGraph builds the MLP training graph used across the repo's tests.
func testGraph(t testing.TB) *graph.Graph {
	t.Helper()
	g := hap.NewGraph()
	x := g.AddPlaceholder("x", 0, 64, 32)
	w1 := g.AddParameter("w1", 32, 48)
	w2 := g.AddParameter("w2", 48, 8)
	h := g.AddOp(hap.ReLU, g.AddOp(hap.MatMul, x, w1))
	g.SetLoss(g.AddOp(hap.Sum, g.AddScale(g.AddOp(hap.MatMul, h, w2), 1.0/64)))
	if err := hap.Backward(g); err != nil {
		t.Fatal(err)
	}
	return g
}

// planWith is what a Config.Synthesize hook calls once it has done its own
// bookkeeping: the default planner, detached from the request context.
func planWith(g *graph.Graph, c *cluster.Cluster, opt hap.Options) (*hap.Plan, error) {
	return hap.NewPlanner(c, hap.WithOptions(opt)).Plan(context.Background(), g)
}

func testCluster() *cluster.Cluster {
	return cluster.FromGPUs(cluster.DefaultNetwork(),
		cluster.MachineSpec{Type: cluster.V100, GPUs: 1},
		cluster.MachineSpec{Type: cluster.P100, GPUs: 1})
}

// requestBody assembles a POST /v1/synthesize body from wire-encoded parts.
func requestBody(t testing.TB, g *graph.Graph, c *cluster.Cluster, opt RequestOptions) []byte {
	t.Helper()
	var gb, cb bytes.Buffer
	if err := g.Encode(&gb); err != nil {
		t.Fatal(err)
	}
	if err := c.Encode(&cb); err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(Request{Graph: gb.Bytes(), Cluster: cb.Bytes(), Options: opt})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// requestCount is how many /v1/synthesize requests s has answered, rejects
// included: the latency histogram's sample count.
func requestCount(s *Server) uint64 {
	n := uint64(0)
	for _, c := range s.latency.snapshot().counts {
		n += c
	}
	return n
}

func post(t *testing.T, url string, body []byte) (int, string, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/synthesize", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("X-HAP-Cache"), b
}

// TestServeEndToEnd drives the daemon over a loopback listener: a first
// request synthesizes, a repeat is a cache hit, the returned plan re-binds to
// an independently rebuilt graph and passes numeric verification.
func TestServeEndToEnd(t *testing.T) {
	s := New(Config{})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	c := testCluster()
	body := requestBody(t, testGraph(t), c, RequestOptions{})

	status, cacheHdr, plan := post(t, srv.URL, body)
	if status != http.StatusOK {
		t.Fatalf("first request: status %d: %s", status, plan)
	}
	if cacheHdr != "miss" {
		t.Errorf("first request X-HAP-Cache = %q, want miss", cacheHdr)
	}

	// The plan must decode against a fresh rebuild of the same model and be
	// semantically equivalent to it.
	g2 := testGraph(t)
	p, err := hap.ReadProgramBinary(bytes.NewReader(plan), g2)
	if err != nil {
		t.Fatalf("ReadProgramBinary on served plan: %v", err)
	}
	if err := p.Program.Validate(); err != nil {
		t.Fatalf("served program ill-formed: %v", err)
	}
	if err := hap.Verify(p, c.M(), 7); err != nil {
		t.Errorf("served plan fails verification: %v", err)
	}

	status, cacheHdr, plan2 := post(t, srv.URL, body)
	if status != http.StatusOK || cacheHdr != "hit" {
		t.Fatalf("repeat request: status %d, cache %q, want 200/hit", status, cacheHdr)
	}
	if !bytes.Equal(plan, plan2) {
		t.Error("cache hit returned different bytes")
	}

	// A different cluster is a different content address.
	hetero := cluster.FromGPUs(cluster.DefaultNetwork(),
		cluster.MachineSpec{Type: cluster.A100, GPUs: 1},
		cluster.MachineSpec{Type: cluster.P100, GPUs: 1})
	status, cacheHdr, _ = post(t, srv.URL, requestBody(t, testGraph(t), hetero, RequestOptions{}))
	if status != http.StatusOK || cacheHdr != "miss" {
		t.Errorf("different cluster: status %d, cache %q, want 200/miss", status, cacheHdr)
	}

	st := s.Stats()
	if n := requestCount(s); n != 3 || st.CacheHits != 1 || st.Syntheses != 2 {
		t.Errorf("%d requests, stats = %+v; want 3 requests, 1 hit, 2 syntheses", n, st)
	}
	if st.CacheEntries != 2 || st.CacheBytes == 0 {
		t.Errorf("cache holds %d entries / %d bytes, want 2 entries", st.CacheEntries, st.CacheBytes)
	}
}

// TestServeSingleFlight issues the same request from N concurrent clients
// while the first synthesis is deliberately held open, and asserts exactly
// one synthesis ran — the rest either joined the flight or hit the cache.
func TestServeSingleFlight(t *testing.T) {
	const n = 10
	var mu sync.Mutex
	syntheses := 0
	started := make(chan struct{})
	release := make(chan struct{})
	cfg := Config{
		Synthesize: func(ctx context.Context, g *graph.Graph, c *cluster.Cluster, opt hap.Options) (*hap.Plan, error) {
			mu.Lock()
			syntheses++
			first := syntheses == 1
			mu.Unlock()
			if first {
				close(started) // let the test unleash the other clients
				<-release      // hold the flight open while they pile in
			}
			return planWith(g, c, opt)
		},
	}
	s := New(cfg)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	body := requestBody(t, testGraph(t), testCluster(), RequestOptions{})

	var wg sync.WaitGroup
	plans := make([][]byte, n)
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, plans[0] = post(t, srv.URL, body)
	}()
	<-started
	for i := 1; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			status, _, b := post(t, srv.URL, body)
			if status != http.StatusOK {
				t.Errorf("client %d: status %d: %s", i, status, b)
			}
			plans[i] = b
		}(i)
	}
	close(release)
	wg.Wait()

	if syntheses != 1 {
		t.Errorf("%d syntheses for %d identical concurrent requests, want exactly 1", syntheses, n)
	}
	for i := 1; i < n; i++ {
		if !bytes.Equal(plans[0], plans[i]) {
			t.Errorf("client %d received a different plan", i)
		}
	}
	st := s.Stats()
	if st.Syntheses != 1 {
		t.Errorf("stats report %d syntheses, want 1", st.Syntheses)
	}
	if got := requestCount(s); got != n || st.CacheHits+st.CacheMisses != n {
		t.Errorf("%d requests, stats = %+v; want %d requests with hits+misses = %d", got, st, n, n)
	}

	// And afterwards the plan is cached: one more request is a pure hit.
	status, cacheHdr, _ := post(t, srv.URL, body)
	if status != http.StatusOK || cacheHdr != "hit" {
		t.Errorf("post-flight request: status %d, cache %q, want 200/hit", status, cacheHdr)
	}
}

func TestServeRejectsBadRequests(t *testing.T) {
	s := New(Config{})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	good := requestBody(t, testGraph(t), testCluster(), RequestOptions{})

	cases := []struct {
		name       string
		body       string
		wantStatus int
	}{
		{"not json", "][", http.StatusBadRequest},
		{"missing graph", `{"cluster": {"version": 1}}`, http.StatusBadRequest},
		{"missing cluster", `{"graph": {"version": 1}}`, http.StatusBadRequest},
		{"malformed graph", strings.Replace(string(good), `"op":"matmul"`, `"op":"quantum"`, 1), http.StatusBadRequest},
		{"malformed cluster", strings.Replace(string(good), `"gpus":1`, `"gpus":0`, 1), http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, _, _ := post(t, srv.URL, []byte(tc.body))
			if status != tc.wantStatus {
				t.Errorf("status = %d, want %d", status, tc.wantStatus)
			}
		})
	}
	resp, err := http.Get(srv.URL + "/v1/synthesize")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/synthesize = %d, want 405", resp.StatusCode)
	}
	if st := s.Stats(); st.Errors != uint64(len(cases))+1 {
		t.Errorf("errors = %d, want %d", st.Errors, len(cases)+1)
	}
}

func TestServeSynthesisFailureNotCached(t *testing.T) {
	calls := 0
	s := New(Config{
		Synthesize: func(ctx context.Context, g *graph.Graph, c *cluster.Cluster, opt hap.Options) (*hap.Plan, error) {
			calls++
			return nil, io.ErrUnexpectedEOF
		},
	})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	body := requestBody(t, testGraph(t), testCluster(), RequestOptions{})
	for i := 0; i < 2; i++ {
		status, _, msg := post(t, srv.URL, body)
		if status != http.StatusUnprocessableEntity {
			t.Fatalf("request %d: status %d (%s), want 422", i, status, msg)
		}
	}
	if calls != 2 {
		t.Errorf("failed synthesis ran %d times, want 2 (errors must not be cached)", calls)
	}
}

// TestServePanicContained: a panicking synthesis (reachable in principle
// from hostile wire input) must answer 422 and release the single-flight
// key — a wedged key would hang every future identical request forever.
func TestServePanicContained(t *testing.T) {
	calls := 0
	s := New(Config{
		Synthesize: func(ctx context.Context, g *graph.Graph, c *cluster.Cluster, opt hap.Options) (*hap.Plan, error) {
			calls++
			panic("slice bounds out of range")
		},
	})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	body := requestBody(t, testGraph(t), testCluster(), RequestOptions{})
	for i := 0; i < 2; i++ {
		status, _, msg := post(t, srv.URL, body) // post has a test deadline via t.Fatal on transport errors
		if status != http.StatusUnprocessableEntity {
			t.Fatalf("request %d: status %d (%s), want 422", i, status, msg)
		}
		if !strings.Contains(string(msg), "panicked") {
			t.Errorf("request %d: error %q does not mention the panic", i, msg)
		}
	}
	if calls != 2 {
		t.Errorf("second request ran %d syntheses in total, want 2 (flight key must be released after a panic)", calls)
	}
}

func TestServeOversizedRequestGets413(t *testing.T) {
	s := New(Config{maxRequestBytes: 128})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	body := requestBody(t, testGraph(t), testCluster(), RequestOptions{}) // well over 128 bytes
	status, _, msg := post(t, srv.URL, body)
	if status != http.StatusRequestEntityTooLarge {
		t.Errorf("status = %d (%s), want 413", status, msg)
	}
}

// TestHealthz: the liveness probe answers status and the wire protocol
// version and nothing else on a standalone daemon — counters are on /metrics
// only, and GET /stats is gone. A fleet node adds its membership: self, the
// member list and how many peers are down. The unversioned POST /synthesize
// of protocol v1 is gone too: the mux answers 404.
func TestHealthz(t *testing.T) {
	s := New(Config{})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	body := requestBody(t, testGraph(t), testCluster(), RequestOptions{})
	if status, _, b := post(t, srv.URL, body); status != http.StatusOK {
		t.Fatalf("request: status %d: %s", status, b)
	}
	gone := postPath(t, srv.URL, "/synthesize", body, "")
	if b := readAll(t, gone); gone.StatusCode != http.StatusNotFound {
		t.Errorf("POST /synthesize = %d (%s), want the mux's 404", gone.StatusCode, b)
	}
	stats, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	if b := readAll(t, stats); stats.StatusCode != http.StatusNotFound {
		t.Errorf("GET /stats = %d (%s), want the mux's 404", stats.StatusCode, b)
	}

	h := getHealthz(t, srv.URL)
	if got := fieldNames(h); got != "protocol,status" {
		t.Errorf("standalone /healthz fields = %s, want exactly protocol,status", got)
	}
	if string(h["status"]) != `"ok"` || string(h["protocol"]) != `"`+ProtocolVersion+`"` {
		t.Errorf("healthz = status %s protocol %s, want \"ok\" and %q", h["status"], h["protocol"], ProtocolVersion)
	}

	fl, err := fleet.New(fleet.Config{Self: "http://self:1", Peers: []string{"http://peer:1"}})
	if err != nil {
		t.Fatal(err)
	}
	node := New(Config{Fleet: fl})
	nodeSrv := httptest.NewServer(node.Handler())
	defer nodeSrv.Close()
	h = getHealthz(t, nodeSrv.URL)
	if got := fieldNames(h); got != "fleet,protocol,status" {
		t.Errorf("fleet /healthz fields = %s, want exactly fleet,protocol,status", got)
	}
	var fh struct {
		Self      string   `json:"self"`
		Peers     []string `json:"peers"`
		PeersDown int      `json:"peers_down"`
	}
	if err := json.Unmarshal(h["fleet"], &fh); err != nil {
		t.Fatalf("decode /healthz fleet: %v", err)
	}
	if fh.Self != "http://self:1" || strings.Join(fh.Peers, " ") != "http://peer:1 http://self:1" || fh.PeersDown != 0 {
		t.Errorf("healthz fleet = %+v, want self http://self:1, peers [http://peer:1 http://self:1], 0 down", fh)
	}
}

// getHealthz fetches GET /healthz and decodes its top-level fields.
func getHealthz(t *testing.T, url string) map[string]json.RawMessage {
	t.Helper()
	resp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /healthz = %d, want 200", resp.StatusCode)
	}
	var h map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatalf("decode /healthz: %v", err)
	}
	return h
}

// fieldNames lists a JSON object's keys, sorted and comma-joined.
func fieldNames(h map[string]json.RawMessage) string {
	names := make([]string, 0, len(h))
	for k := range h {
		names = append(names, k)
	}
	sort.Strings(names)
	return strings.Join(names, ",")
}

// TestRetiredOptionsKeyAsDefault: the retired "exact_search" and
// "max_iterations" options neither split the cache nor reach the planner. A
// body that still sends them decodes (unknown fields are ignored), derives
// the key of the same body without them and is served that body's plan.
func TestRetiredOptionsKeyAsDefault(t *testing.T) {
	s := New(Config{})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	body := requestBody(t, testGraph(t), testCluster(), RequestOptions{})

	status, hdr, plan := post(t, srv.URL, body)
	if status != http.StatusOK || hdr != "miss" {
		t.Fatalf("default request: status %d cache %q: %s", status, hdr, plan)
	}
	legacy := bytes.Replace(body, []byte(`"options":{}`), []byte(`"options":{"exact_search":true,"max_iterations":2}`), 1)
	if bytes.Equal(legacy, body) {
		t.Fatalf("request body has no empty options object to rewrite: %s", body)
	}
	if status, hdr, b := post(t, srv.URL, legacy); status != http.StatusOK || hdr != "hit" || !bytes.Equal(b, plan) {
		t.Fatalf("request with retired options: status %d cache %q, want 200/hit with the default plan", status, hdr)
	}
	if st := s.Stats(); st.Syntheses != 1 {
		t.Errorf("%d syntheses, want 1", st.Syntheses)
	}
}

// TestOptimizeOptionPlumbing checks a miss runs under the default synth time
// budget (and under none with a negative one), and that the retired "optimize" option no longer splits the cache:
// a body that still sends "optimize": false decodes (unknown fields are
// ignored), derives the default key and is served the cached plan.
func TestOptimizeOptionPlumbing(t *testing.T) {
	var mu sync.Mutex
	var budgets []time.Duration // each synthesis's time left, -1 without a deadline
	s := New(Config{
		Synthesize: func(ctx context.Context, g *graph.Graph, c *cluster.Cluster, opt hap.Options) (*hap.Plan, error) {
			mu.Lock()
			budgets = append(budgets, timeLeft(ctx))
			mu.Unlock()
			return planWith(g, c, opt)
		},
	})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	body := requestBody(t, testGraph(t), testCluster(), RequestOptions{})

	status, hdr, plan := post(t, srv.URL, body)
	if status != http.StatusOK || hdr != "miss" {
		t.Fatalf("default request: status %d cache %q: %s", status, hdr, plan)
	}
	legacy := bytes.Replace(body, []byte(`"options":{}`), []byte(`"options":{"optimize":false}`), 1)
	if bytes.Equal(legacy, body) {
		t.Fatalf("request body has no empty options object to rewrite: %s", body)
	}
	if status, hdr, b := post(t, srv.URL, legacy); status != http.StatusOK || hdr != "hit" || !bytes.Equal(b, plan) {
		t.Fatalf("optimize=false request: status %d cache %q, want 200/hit with the default plan", status, hdr)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(budgets) != 1 {
		t.Fatalf("%d syntheses, want 1", len(budgets))
	}
	if b := budgets[0]; b <= 0 || b > DefaultSynthTimeBudget {
		t.Errorf("synthesis ran with %v left on its context, want a deadline within the default %v", b, DefaultSynthTimeBudget)
	}

	// A negative budget plans under the request's own context, with no
	// deadline of the daemon's.
	left := make(chan time.Duration, 1)
	unlimited := httptest.NewServer(New(Config{
		SynthTimeBudget: -1,
		Synthesize: func(ctx context.Context, g *graph.Graph, c *cluster.Cluster, opt hap.Options) (*hap.Plan, error) {
			left <- timeLeft(ctx)
			return planWith(g, c, opt)
		},
	}).Handler())
	defer unlimited.Close()
	if status, _, b := post(t, unlimited.URL, body); status != http.StatusOK {
		t.Fatalf("unlimited budget: status %d: %s", status, b)
	}
	if b := <-left; b != -1 {
		t.Errorf("unlimited budget: synthesis context has %v left, want no deadline", b)
	}
}

// timeLeft is how long ctx has until its deadline, -1 when it has none.
func timeLeft(ctx context.Context) time.Duration {
	dl, ok := ctx.Deadline()
	if !ok {
		return -1
	}
	return time.Until(dl)
}

// TestOneSegmentIsTheDefaultPlan: segments 0 and 1 plan alike, so a
// segments:1 body after a segments:0 fill of the same graph and cluster is a
// hit on the one plan, not a second synthesis.
func TestOneSegmentIsTheDefaultPlan(t *testing.T) {
	s := New(Config{})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	g, c := testGraph(t), testCluster()
	status, hdr, plan := post(t, srv.URL, requestBody(t, g, c, RequestOptions{}))
	if status != http.StatusOK || hdr != "miss" {
		t.Fatalf("segments:0 fill: status %d cache %q: %s", status, hdr, plan)
	}
	status, hdr, b := post(t, srv.URL, requestBody(t, g, c, RequestOptions{Segments: 1}))
	if status != http.StatusOK || hdr != "hit" || !bytes.Equal(b, plan) {
		t.Errorf("segments:1 request: status %d cache %q, want 200/hit with the segments:0 plan", status, hdr)
	}
	if n := s.Stats().Syntheses; n != 1 {
		t.Errorf("%d syntheses, want 1", n)
	}
}

// TestNewStartsNoGoroutine: the daemon runs no background work of its own —
// a TTL is checked where the store is read — so building one, with a TTL
// and a cache directory, leaves the goroutine count where it was.
func TestNewStartsNoGoroutine(t *testing.T) {
	// A goroutine of an earlier test may start or finish meanwhile: retry,
	// and fail only when every attempt grew the count.
	for i := 0; i < 5; i++ {
		before := runtime.NumGoroutine()
		New(Config{CacheTTL: time.Hour, CacheDir: t.TempDir()})
		if runtime.NumGoroutine() <= before {
			return
		}
	}
	t.Error("serve.New started a goroutine")
}

// TestMetricsEndpoint checks the Prometheus text exposition carries the
// counters Stats reports.
func TestMetricsEndpoint(t *testing.T) {
	s := New(Config{})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	body := requestBody(t, testGraph(t), testCluster(), RequestOptions{})
	for i := 0; i < 2; i++ {
		if status, _, b := post(t, srv.URL, body); status != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, status, b)
		}
	}

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q, want text/plain exposition", ct)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	metrics := string(b)
	for _, want := range []string{
		"# TYPE hap_serve_request_seconds histogram",
		`hap_serve_request_seconds_count{endpoint="v1"} 2`,
		"hap_serve_cache_hits_total 1",
		"hap_serve_syntheses_total 1",
		"# TYPE hap_serve_cache_entries gauge",
		"hap_serve_cache_entries 1",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics exposition missing %q:\n%s", want, metrics)
		}
	}
}
