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

// TestBatchRespectsAdmissionCap: a caller with K clusters makes K requests,
// and the gate counts their searches. With one slot, three concurrent cold
// requests never have two planner calls in flight: one runs, two are shed
// with 429 and Retry-After — and the one that ran is cached, so the retry
// round re-pays none of it.
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
	g := testGraph(t)
	var bodies [][]byte
	for _, c := range []*cluster.Cluster{testCluster(), altCluster(), thirdCluster()} {
		bodies = append(bodies, requestBody(t, g, c, RequestOptions{}))
	}

	// The request holding the slot stays in the planner until the other two
	// have been turned away (or, with no gate between them, until all three
	// are in the planner at once).
	answers := make(chan *http.Response, len(bodies))
	for _, body := range bodies {
		go func(body []byte) {
			resp, err := http.Post(srv.URL+"/v1/synthesize", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
			}
			answers <- resp
		}(body)
	}
	settled := func() bool { return s.Stats().AdmissionShed >= 2 || peak.Load() >= 3 }
	for deadline := time.Now().Add(10 * time.Second); !settled() && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	close(release)
	shed := 0
	for range bodies {
		resp := <-answers
		if resp == nil {
			continue
		}
		raw := readAll(t, resp)
		if resp.StatusCode == http.StatusOK {
			continue
		}
		var env ErrorEnvelope
		if resp.StatusCode != http.StatusTooManyRequests || json.Unmarshal(raw, &env) != nil || env.Code != CodeOverloaded {
			t.Fatalf("cold request under a cap of 1: status %d body %.120s, want 200 or 429 %s", resp.StatusCode, raw, CodeOverloaded)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Error("shed request carries no Retry-After")
		}
		shed++
	}
	st := s.Stats()
	if shed != 2 || st.AdmissionShed != 2 || st.InflightSynth != 0 || st.CacheEntries != 1 {
		t.Errorf("after three cold requests: %d shed, admission_shed %d inflight_synth %d cache_entries %d, want 2/2/0/1",
			shed, st.AdmissionShed, st.InflightSynth, st.CacheEntries)
	}

	// The retry round: what ran before is a hit, the two shed ones plan now.
	for i, body := range bodies {
		if status, _, raw := post(t, srv.URL, body); status != http.StatusOK {
			t.Fatalf("retry %d: status %d: %s", i, status, raw)
		}
	}
	if after := s.Stats(); after.CacheHits-st.CacheHits != 1 || after.Syntheses != 3 || after.CacheEntries != 3 {
		t.Errorf("retry round: %d hits, %d syntheses in all, %d entries; want 1/3/3",
			after.CacheHits-st.CacheHits, after.Syntheses, after.CacheEntries)
	}
	if p := peak.Load(); p != 1 {
		t.Errorf("%d planner calls in flight at once under a cap of 1", p)
	}
	if n := s.Stats().InflightSynth; n != 0 {
		t.Errorf("inflight_synth = %d after quiescence, want 0", n)
	}
}
