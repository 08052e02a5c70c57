package load_test

import (
	"context"
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
	"hap/internal/fleet"
	"hap/internal/graph"
	"hap/internal/load"
	"hap/internal/serve"
)

// TestE2ESingleDaemon drives the full loop against a real daemon: warm the
// corpus, run a closed-loop mix, and gate the report with an SLO string —
// the same path the CI load job exercises via cmd/hap-loadgen.
func TestE2ESingleDaemon(t *testing.T) {
	s := serve.New(serve.Config{})
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)

	corpus, err := load.NewCorpus(3, 2, 17)
	if err != nil {
		t.Fatal(err)
	}
	warmed, err := load.Warmup(context.Background(), srv.URL, nil, corpus)
	if err != nil {
		t.Fatalf("warmup: %v", err)
	}
	if warmed != corpus.Items() {
		t.Fatalf("warmed %d of %d items", warmed, corpus.Items())
	}

	rep, err := load.Run(context.Background(), load.Options{
		Target: srv.URL, Corpus: corpus, Seed: 7,
		Concurrency: 4, Requests: 80,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests != 80 {
		t.Errorf("requests = %d, want 80", rep.Requests)
	}
	if rep.Errors != 0 {
		t.Errorf("errors = %d (%v), want 0", rep.Errors, rep.ErrorsByCode)
	}
	// Everything was warmed, so nothing should miss.
	if rep.PlanMiss != 0 || rep.HitRatio != 1 {
		t.Errorf("miss = %d hit_ratio = %g after full warmup", rep.PlanMiss, rep.HitRatio)
	}
	// The in-process threshold is deliberately loose — race-mode CI shares
	// cores with the daemon; CI's load job gates real daemons tighter.
	slo, err := load.ParseSLO("errors=0, hit_ratio>=0.99, warm.p99<2s")
	if err != nil {
		t.Fatal(err)
	}
	results, ok := slo.Check(rep)
	if !ok {
		for _, r := range results {
			t.Error(r.Detail)
		}
	}
	if !strings.Contains(rep.Text(), "hit ratio") {
		t.Error("text report lacks hit ratio line")
	}
}

// switchHandler mirrors the serve-internal fleet test helper: the listener
// must bind (to learn its URL) before the serve.Server that answers on it
// can be configured with that URL.
type switchHandler struct {
	mu sync.Mutex
	h  http.Handler
}

func (sw *switchHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	sw.mu.Lock()
	h := sw.h
	sw.mu.Unlock()
	if h == nil {
		http.Error(w, "not ready", http.StatusServiceUnavailable)
		return
	}
	h.ServeHTTP(w, r)
}

// newTrio boots a 3-node in-process fleet and returns the node URLs.
func newTrio(t *testing.T, mutate func(cfg *serve.Config)) []string {
	t.Helper()
	switches := make([]*switchHandler, 3)
	urls := make([]string, 3)
	for i := range switches {
		switches[i] = &switchHandler{}
		srv := httptest.NewServer(switches[i])
		t.Cleanup(srv.Close)
		urls[i] = srv.URL
	}
	for i := range switches {
		fl, err := fleet.New(fleet.Config{Self: urls[i], Peers: urls, Replicas: 2})
		if err != nil {
			t.Fatal(err)
		}
		cfg := serve.Config{Fleet: fl}
		if mutate != nil {
			mutate(&cfg)
		}
		s := serve.New(cfg)
		switches[i].mu.Lock()
		switches[i].h = s.Handler()
		switches[i].mu.Unlock()
	}
	return urls
}

// TestE2EFleetTrio points the load generator at one node of a 3-node fleet:
// non-owned keys must be answered by proxy (and marked as such in the
// report) with no errors and a fully warm cache.
func TestE2EFleetTrio(t *testing.T) {
	urls := newTrio(t, nil)

	corpus, err := load.NewCorpus(4, 2, 23)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := load.Warmup(context.Background(), urls[0], nil, corpus); err != nil {
		t.Fatalf("warmup: %v", err)
	}
	// Every key has two holders on this ring (owner + one replica) and the
	// listeners' ports are random, so which node lacks which key is too: about
	// one run in five, node 0 happens to hold a copy of everything requested.
	// Exactly one node lacks the hottest key, though, so driving each node in
	// turn must reach one that proxies.
	var rep *load.Report
	for _, target := range urls {
		rep, err = load.Run(context.Background(), load.Options{
			Target: target, Corpus: corpus, Mix: load.Mix{Single: 3, Conditional: 1},
			Seed: 9, ZipfS: 1.05, Concurrency: 4, Requests: 60,
		})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Errors != 0 {
			t.Fatalf("errors = %d (%v)", rep.Errors, rep.ErrorsByCode)
		}
		if rep.PlanMiss != 0 {
			t.Errorf("miss = %d after fleet-wide warmup", rep.PlanMiss)
		}
		if rep.Proxied > 0 {
			break
		}
	}
	// Non-owned keys are answered by proxy, and the report must say so.
	if rep.Proxied == 0 {
		t.Error("no proxied requests recorded against any node of a 3-node fleet")
	}
	if rep.Classes["proxied"].Count != rep.Proxied {
		t.Errorf("proxied class count %d != proxied total %d", rep.Classes["proxied"].Count, rep.Proxied)
	}
}

// TestE2EOverload pins the admission-control contract end to end: a daemon
// with one synthesis slot and a slow planner sheds concurrent cold misses as
// 429s, which the report books as shed — never as errors — while the server
// counts them in Stats and /metrics.
func TestE2EOverload(t *testing.T) {
	var inflight atomic.Int64
	var s *serve.Server
	s = serve.New(serve.Config{
		MaxInflightSynth: 1,
		Synthesize: func(ctx context.Context, g *graph.Graph, c *cluster.Cluster, opt hap.Options) (*hap.Plan, error) {
			// One slot: misses reach the planner one at a time.
			if n := inflight.Add(1); n > 1 {
				t.Errorf("%d planner calls in flight under -max-inflight-synth 1", n)
			}
			defer inflight.Add(-1)
			time.Sleep(60 * time.Millisecond)
			return hap.NewPlanner(c, hap.WithOptions(opt)).Plan(context.Background(), g)
		},
	})
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)

	corpus, err := load.NewCorpus(8, 1, 31)
	if err != nil {
		t.Fatal(err)
	}
	// No warmup: everything is cold, workers race distinct keys into the
	// single slot. Near-uniform popularity keeps keys distinct so sheds come
	// from admission, not single-flight joins.
	rep, err := load.Run(context.Background(), load.Options{
		Target: srv.URL, Corpus: corpus, Mix: load.Mix{Single: 4},
		Seed: 5, ZipfS: 1.01, Concurrency: 6, Requests: 48,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Shed == 0 {
		t.Fatal("no requests shed under a 1-slot overload")
	}
	if rep.Errors != 0 {
		t.Errorf("errors = %d (%v); sheds must not be booked as errors", rep.Errors, rep.ErrorsByCode)
	}
	// Joined single-flight waiters share a shed verdict, so the report may
	// book more sheds than the server's one-per-flight counter.
	st := s.Stats()
	if st.AdmissionShed == 0 || st.AdmissionShed > rep.Shed {
		t.Errorf("server counted %d sheds, report %d", st.AdmissionShed, rep.Shed)
	}
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "hap_serve_admission_shed_total") {
		t.Error("/metrics lacks hap_serve_admission_shed_total")
	}
	// The SLO language expresses exactly this gate.
	slo, err := load.ParseSLO("errors=0, shed>0")
	if err != nil {
		t.Fatal(err)
	}
	if results, ok := slo.Check(rep); !ok {
		for _, r := range results {
			t.Error(r.Detail)
		}
	}
}
