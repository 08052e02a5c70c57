package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hap"
	"hap/internal/cluster"
	"hap/internal/graph"
)

// altCluster is a second cluster shape, giving tests a second cache key for
// the same graph.
func altCluster() *cluster.Cluster {
	return cluster.FromGPUs(cluster.DefaultNetwork(),
		cluster.MachineSpec{Type: cluster.A100, GPUs: 1},
		cluster.MachineSpec{Type: cluster.P100, GPUs: 1})
}

// thirdCluster is a third distinct cache key.
func thirdCluster() *cluster.Cluster {
	return cluster.FromGPUs(cluster.DefaultNetwork(),
		cluster.MachineSpec{Type: cluster.P100, GPUs: 2})
}

// TestAdmissionShedsExcessMisses pins the full admission contract with one
// synthesis slot: while a synthesis occupies it, (1) a miss on a different
// key is shed with 429, the overloaded envelope code, and the one-second
// Retry-After; (2) a cache hit is served normally; (3) a miss on the SAME
// key joins the in-flight flight instead of being shed. Afterwards the shed
// key synthesizes fine — shedding rejected a request, not the key.
func TestAdmissionShedsExcessMisses(t *testing.T) {
	var hold sync.Map // cluster fingerprint → chan to block on
	started := make(chan struct{}, 1)
	cfg := Config{
		MaxInflightSynth: 1,
		Synthesize: func(ctx context.Context, g *graph.Graph, c *cluster.Cluster, opt hap.Options) (*hap.Plan, error) {
			if ch, ok := hold.Load(c.Fingerprint()); ok {
				started <- struct{}{}
				select {
				case <-ch.(chan struct{}):
				case <-ctx.Done():
					return nil, ctx.Err()
				}
			}
			return planWith(g, c, opt)
		},
	}
	s := New(cfg)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	g := testGraph(t)
	slow, fast, warm := testCluster(), altCluster(), thirdCluster()

	// Warm one key while the gate is idle: its hits must never shed.
	warmBody := requestBody(t, g, warm, RequestOptions{})
	if status, _, b := post(t, srv.URL, warmBody); status != http.StatusOK {
		t.Fatalf("warming key: status %d: %s", status, b)
	}

	// Occupy the only slot with a deliberately held synthesis.
	release := make(chan struct{})
	hold.Store(slow.Fingerprint(), release)
	slowBody := requestBody(t, g, slow, RequestOptions{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if status, _, b := post(t, srv.URL, slowBody); status != http.StatusOK {
			t.Errorf("held synthesis: status %d: %s", status, b)
		}
	}()
	<-started

	// (1) A different-key miss is shed: 429, overloaded, Retry-After.
	resp, err := http.Post(srv.URL+"/v1/synthesize", "application/json",
		bytes.NewReader(requestBody(t, g, fast, RequestOptions{})))
	if err != nil {
		t.Fatal(err)
	}
	shedBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("miss at capacity: status %d, want 429: %s", resp.StatusCode, shedBody)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Errorf("Retry-After = %q, want \"1\"", got)
	}
	var env ErrorEnvelope
	if err := json.Unmarshal(shedBody, &env); err != nil || env.Code != CodeOverloaded {
		t.Errorf("shed envelope = %s, want code %q", shedBody, CodeOverloaded)
	}

	// (2) A cache hit sails through the full gate.
	if status, cacheHdr, b := post(t, srv.URL, warmBody); status != http.StatusOK || cacheHdr != "hit" {
		t.Errorf("hit at capacity: status %d, cache %q: %s", status, cacheHdr, b)
	}

	// (3) A same-key miss joins the flight rather than shedding: release the
	// held synthesis while the joiner waits; both get the plan.
	joined := make(chan int, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		status, _, _ := post(t, srv.URL, slowBody)
		joined <- status
	}()
	// Give the joiner time to reach the flight (it cannot signal precisely;
	// a late join just becomes a cache hit, which also must not shed).
	time.Sleep(50 * time.Millisecond)
	close(release)
	if status := <-joined; status != http.StatusOK {
		t.Errorf("same-key join at capacity: status %d, want 200", status)
	}
	wg.Wait()

	// The shed key was rejected, not poisoned: with the slot free it plans.
	hold.Delete(slow.Fingerprint())
	if status, _, b := post(t, srv.URL, requestBody(t, g, fast, RequestOptions{})); status != http.StatusOK {
		t.Errorf("shed key after release: status %d: %s", status, b)
	}

	st := s.Stats()
	if st.AdmissionShed != 1 {
		t.Errorf("AdmissionShed = %d, want 1", st.AdmissionShed)
	}
	if st.InflightSynth != 0 {
		t.Errorf("InflightSynth = %d after quiesce, want 0", st.InflightSynth)
	}

	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, want := range []string{
		"hap_serve_admission_shed_total 1",
		"hap_serve_inflight_synth 0",
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestAdmissionBatch: a batch needing synthesis sheds as a whole at
// capacity; an all-hit batch is served even with the gate full.
func TestAdmissionBatch(t *testing.T) {
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	var holdFP string
	cfg := Config{
		MaxInflightSynth: 1,
		Synthesize: func(ctx context.Context, g *graph.Graph, c *cluster.Cluster, opt hap.Options) (*hap.Plan, error) {
			if c.Fingerprint() == holdFP {
				started <- struct{}{}
				select {
				case <-release:
				case <-ctx.Done():
					return nil, ctx.Err()
				}
			}
			return planWith(g, c, opt)
		},
	}
	s := New(cfg)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	g := testGraph(t)
	slow, hot := testCluster(), thirdCluster()
	holdFP = slow.Fingerprint()

	// Warm one key, then occupy the slot.
	if status, _, b := post(t, srv.URL, requestBody(t, g, hot, RequestOptions{})); status != http.StatusOK {
		t.Fatalf("warming: status %d: %s", status, b)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		post(t, srv.URL, requestBody(t, g, slow, RequestOptions{}))
	}()
	<-started

	batchFor := func(cs ...*cluster.Cluster) []byte {
		t.Helper()
		var gb bytes.Buffer
		if err := g.Encode(&gb); err != nil {
			t.Fatal(err)
		}
		raws := make([]json.RawMessage, len(cs))
		for i, c := range cs {
			var cb bytes.Buffer
			if err := c.Encode(&cb); err != nil {
				t.Fatal(err)
			}
			raws[i] = cb.Bytes()
		}
		body, err := json.Marshal(BatchRequest{Graph: gb.Bytes(), Clusters: raws})
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	postBatch := func(body []byte) (int, []byte) {
		t.Helper()
		resp, err := http.Post(srv.URL+"/v1/synthesize/batch", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, b
	}

	// All-hit batch: served while the gate is full.
	if status, b := postBatch(batchFor(hot)); status != http.StatusOK {
		t.Errorf("all-hit batch at capacity: status %d: %s", status, b)
	}
	// A batch needing a synthesis sheds as a whole.
	if status, b := postBatch(batchFor(hot, altCluster())); status != http.StatusTooManyRequests {
		t.Errorf("miss batch at capacity: status %d, want 429: %s", status, b)
	}
	close(release)
	<-done

	if st := s.Stats(); st.AdmissionShed != 1 {
		t.Errorf("AdmissionShed = %d, want 1", st.AdmissionShed)
	}
}

// TestBatchRespectsAdmissionCap: a batch is K single misses, so the gate
// counts its searches, not the request. With one slot, a 3-cluster all-miss
// batch never has two planner calls in flight: one sibling runs, two are shed,
// the request answers 429 — and the sibling that ran is cached, so retries
// converge instead of re-paying it.
func TestBatchRespectsAdmissionCap(t *testing.T) {
	var inflight, peak atomic.Int64
	release := make(chan struct{})
	s := New(Config{
		MaxInflightSynth: 1,
		Synthesize: func(ctx context.Context, g *graph.Graph, c *cluster.Cluster, opt hap.Options) (*hap.Plan, error) {
			n := inflight.Add(1)
			defer inflight.Add(-1)
			for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
			}
			select {
			case <-release:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			return planWith(g, c, opt)
		},
	})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	body := batchBody(t, testGraph(t), []*cluster.Cluster{testCluster(), altCluster(), thirdCluster()}, RequestOptions{})

	// The sibling holding the slot stays in the planner until its two
	// siblings have been turned away (or, with no gate between them, until
	// all three are in the planner at once).
	first := make(chan *http.Response, 1)
	go func() { first <- postPath(t, srv.URL, "/v1/synthesize/batch", body, "") }()
	settled := func() bool { return len(first) > 0 || s.Stats().AdmissionShed >= 2 || peak.Load() >= 3 }
	for deadline := time.Now().Add(10 * time.Second); !settled() && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	close(release)
	resp := <-first
	raw := readAll(t, resp)
	var env ErrorEnvelope
	if resp.StatusCode != http.StatusTooManyRequests || json.Unmarshal(raw, &env) != nil || env.Code != CodeOverloaded {
		t.Fatalf("3-miss batch under a cap of 1: status %d body %.120s, want 429 %s", resp.StatusCode, raw, CodeOverloaded)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("shed batch carries no Retry-After")
	}
	st := s.Stats()
	if st.AdmissionShed != 2 || st.InflightSynth != 0 || st.CacheEntries != 1 {
		t.Errorf("after the shed batch: admission_shed %d inflight_synth %d cache_entries %d, want 2/0/1",
			st.AdmissionShed, st.InflightSynth, st.CacheEntries)
	}

	// Retries converge: what ran before is a hit, and every request turns at
	// least one more miss into one.
	status := resp.StatusCode
	for req := 2; status != http.StatusOK; req++ {
		if req > 3 {
			t.Fatalf("batch still answers %d after three requests", status)
		}
		before := s.Stats()
		resp := postPath(t, srv.URL, "/v1/synthesize/batch", body, "")
		raw := readAll(t, resp)
		status = resp.StatusCode
		if status != http.StatusOK && status != http.StatusTooManyRequests {
			t.Fatalf("retry %d: status %d: %s", req, status, raw)
		}
		after := s.Stats()
		if hits := after.CacheHits - before.CacheHits; hits != uint64(before.CacheEntries) {
			t.Errorf("retry %d: %d hits with %d siblings already planned", req, hits, before.CacheEntries)
		}
		if after.CacheEntries <= before.CacheEntries {
			t.Fatalf("retry %d planned nothing new (%d entries)", req, after.CacheEntries)
		}
	}
	if p := peak.Load(); p != 1 {
		t.Errorf("%d planner calls in flight at once under a cap of 1", p)
	}
	if n := s.Stats().InflightSynth; n != 0 {
		t.Errorf("inflight_synth = %d after quiescence, want 0", n)
	}
}

// TestBatchBinaryNegotiation: Accept: application/x-hap-plan on the batch
// endpoint yields per-result binary payloads (base64 in the JSON envelope)
// that decode with ReadProgramBinary to the same plans the JSON form
// carries — on both the miss path and the hit path.
func TestBatchBinaryNegotiation(t *testing.T) {
	s := New(Config{})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	g := testGraph(t)
	clusters := []*cluster.Cluster{testCluster(), altCluster()}

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
		raws[i] = cb.Bytes()
	}
	body, err := json.Marshal(BatchRequest{Graph: gb.Bytes(), Clusters: raws})
	if err != nil {
		t.Fatal(err)
	}

	postBatch := func(accept string) BatchResponse {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/synthesize/batch", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("Accept", accept)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			raw, _ := io.ReadAll(resp.Body)
			t.Fatalf("batch status %d: %s", resp.StatusCode, raw)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
			t.Fatalf("batch envelope Content-Type = %q, want JSON", ct)
		}
		var br BatchResponse
		if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
			t.Fatal(err)
		}
		if len(br.Plans) != len(clusters) {
			t.Fatalf("%d results for %d clusters", len(br.Plans), len(clusters))
		}
		return br
	}

	// Miss path, binary negotiated: every result carries bin, no plan.
	bin := postBatch(BinaryPlanContentType)
	for i, p := range bin.Plans {
		if p.Cache != "miss" {
			t.Errorf("result %d cache = %q, want miss", i, p.Cache)
		}
		if len(p.Bin) == 0 || len(p.Plan) != 0 {
			t.Fatalf("result %d: bin %d bytes, plan %d bytes; want binary only", i, len(p.Bin), len(p.Plan))
		}
	}
	// Hit path, JSON: same plans in the JSON field.
	js := postBatch("application/json")
	for i, p := range js.Plans {
		if p.Cache != "hit" {
			t.Errorf("repeat result %d cache = %q, want hit", i, p.Cache)
		}
		if len(p.Plan) == 0 || len(p.Bin) != 0 {
			t.Fatalf("repeat result %d: plan %d bytes, bin %d bytes; want JSON only", i, len(p.Plan), len(p.Bin))
		}
	}
	// The two encodings decode to the same programs.
	for i := range clusters {
		g2 := testGraph(t)
		fromBin, err := hap.ReadProgramBinary(bytes.NewReader(bin.Plans[i].Bin), g2)
		if err != nil {
			t.Fatalf("result %d: decoding binary payload: %v", i, err)
		}
		fromJSON, err := hap.ReadProgram(bytes.NewReader(js.Plans[i].Plan), testGraph(t))
		if err != nil {
			t.Fatalf("result %d: decoding JSON payload: %v", i, err)
		}
		if fromBin.Program.String() != fromJSON.Program.String() {
			t.Errorf("result %d: binary and JSON payloads decode to different programs", i)
		}
	}
	// Hit path, binary: cached entries serve their binary form too.
	binHit := postBatch(BinaryPlanContentType)
	for i, p := range binHit.Plans {
		if p.Cache != "hit" || len(p.Bin) == 0 {
			t.Errorf("binary hit result %d: cache %q, %d bin bytes", i, p.Cache, len(p.Bin))
		}
	}
}
