package serve

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"hap"
	"hap/internal/graph"
	"hap/internal/models"
	"hap/internal/obs"
)

// seedServeGraph builds a training MLP deep enough that a one-layer widening
// stays under the seed distance cutoff (shallow models diff too coarsely).
func seedServeGraph(widths ...int) *graph.Graph {
	return models.Training(models.MLP(64, widths...))
}

// seedDistance reads the trace of answer a from url's debug ring and returns
// the seed distance its planner's seed span recorded, or -1 when the request
// built no seed of its own: a cold miss, a hit, a joined flight. The trace is
// where a seeded search shows per request; the answer carries no sign of it.
// The seed span is the distance's one place on the trace: a second span
// carrying it fails the test.
func seedDistance(t *testing.T, url string, a answer) float64 {
	t.Helper()
	if a.trace == "" {
		t.Fatal("the answer carries no trace ID")
	}
	spans := getTrace(t, url, a.trace).Spans
	names := make(map[uint64]string, len(spans))
	for _, sp := range spans {
		names[sp.ID] = sp.Name
	}
	d := -1.0
	for _, sp := range spans {
		for k, v := range sp.Attrs {
			if !strings.Contains(k, "distance") {
				continue
			}
			if sp.Name != "seed" || names[sp.Parent] != "optimize" || k != "distance" || d != -1 {
				t.Fatalf("span %s/%s carries %s=%s: the seed distance belongs once on optimize/seed", names[sp.Parent], sp.Name, k, v)
			}
			var err error
			if d, err = strconv.ParseFloat(v, 64); err != nil {
				t.Fatalf("seed span: distance = %q: %v", v, err)
			}
		}
	}
	return d
}

// TestServeIncrementalSynthesis drives the full incremental path over the
// wire: a first miss synthesizes cold and is stored as a donor, a structurally
// similar second miss seeds from it — observable as the seed distance on its
// trace's seed span, the SynthIncremental counter, and its /metrics
// series — and the seeded plan still passes numeric verification.
func TestServeIncrementalSynthesis(t *testing.T) {
	s := New(Config{})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	c := testCluster()
	baseBody := requestBody(t, seedServeGraph(64, 96, 96, 96, 96, 96, 96, 32), c, RequestOptions{})
	wideBody := requestBody(t, seedServeGraph(64, 96, 96, 112, 96, 96, 96, 32), c, RequestOptions{})

	a := ask(t, srv.URL, baseBody, "")
	if a.status != http.StatusOK {
		t.Fatalf("donor request: status %d: %s", a.status, a.body)
	}
	if d := seedDistance(t, srv.URL, a); d != -1 || s.Stats().SynthIncremental != 0 {
		t.Errorf("first miss has no donor but was seeded (seed distance %v, synth_incremental %d)", d, s.Stats().SynthIncremental)
	}

	a = ask(t, srv.URL, wideBody, "")
	if a.status != http.StatusOK {
		t.Fatalf("widened request: status %d: %s", a.status, a.body)
	}
	d := seedDistance(t, srv.URL, a)
	if d == -1 {
		t.Fatal("widened miss was not seeded: its trace has no seed span with a distance")
	}
	if d <= 0 || d > 1 {
		t.Fatalf("seed distance = %v, want a distance in (0, 1]", d)
	}
	plan := a.body

	// The seeded plan must re-bind to a fresh rebuild of the widened model
	// and pass numeric verification, exactly like a cold plan.
	g2 := seedServeGraph(64, 96, 96, 112, 96, 96, 96, 32)
	p, err := hap.ReadProgramBinary(bytes.NewReader(plan), g2)
	if err != nil {
		t.Fatalf("ReadProgramBinary on seeded plan: %v", err)
	}
	if err := p.Program.Validate(); err != nil {
		t.Fatalf("seeded program ill-formed: %v", err)
	}
	if err := hap.Verify(p, c.M(), 7); err != nil {
		t.Errorf("seeded plan fails verification: %v", err)
	}

	st := s.Stats()
	if st.SynthIncremental != 1 {
		t.Errorf("stats synth_incremental = %d, want 1", st.SynthIncremental)
	}

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(metrics), "hap_serve_synth_incremental_total 1") {
		t.Errorf("/metrics missing hap_serve_synth_incremental_total 1:\n%s", metrics)
	}

	// A repeat is a pure cache hit: no synthesis ran, so nothing seeded.
	a = ask(t, srv.URL, wideBody, "")
	if a.status != http.StatusOK || a.cache != "hit" {
		t.Fatalf("repeat request: status %d, cache %q, want 200/hit", a.status, a.cache)
	}
	if d := seedDistance(t, srv.URL, a); d != -1 || s.Stats().SynthIncremental != 1 {
		t.Errorf("cache hit was seeded (seed distance %v, synth_incremental %d), want neither", d, s.Stats().SynthIncremental)
	}
}

// TestServeEvictedPlanIsNeverDonor: a plan's donor record lives in its cache
// entry, so a plan the LRU has evicted is never chosen as a donor. With room
// for two entries, a near-miss of a cached base graph seeds from it; once two
// unrelated plans push base and that near-miss out, a second near-miss of
// base finds no donor and synthesizes cold.
func TestServeEvictedPlanIsNeverDonor(t *testing.T) {
	s := New(Config{MaxCacheEntries: 2})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	c := testCluster()
	base := seedServeGraph(64, 96, 96, 96, 96, 96, 96, 32)
	wide := seedServeGraph(64, 96, 96, 112, 96, 96, 96, 32)
	wider := seedServeGraph(64, 96, 96, 96, 96, 112, 96, 32)
	// miss returns the seed distance of g's miss, -1 when it searched cold.
	miss := func(g *graph.Graph) float64 {
		t.Helper()
		a := ask(t, srv.URL, requestBody(t, g, c, RequestOptions{}), "")
		if a.status != http.StatusOK || a.cache != "miss" {
			t.Fatalf("status %d, cache %q, want 200/miss: %s", a.status, a.cache, a.body)
		}
		return seedDistance(t, srv.URL, a)
	}
	donorFor := func(g *graph.Graph) donor {
		return s.nearestDonor(newPlanSource(g, c, RequestOptions{}), cacheKey(g, c, RequestOptions{}))
	}

	miss(base)
	if d := donorFor(wide); d.key != cacheKey(base, c, RequestOptions{}) || len(d.bin) == 0 {
		t.Fatalf("with base cached, the donor for a near-miss is %q (payload %d bytes), want base", d.key, len(d.bin))
	}
	if d := miss(wide); d == -1 {
		t.Fatal("a near-miss of a cached plan was not seeded")
	}

	for _, w := range []int{24, 40} {
		miss(seedServeGraph(w, 8))
	}
	evicted := map[string]bool{cacheKey(base, c, RequestOptions{}): true, cacheKey(wide, c, RequestOptions{}): true}
	for k := range evicted {
		if holds(s.store, k) {
			t.Fatalf("%s is still cached after two later misses with room for two", k)
		}
	}
	if d := donorFor(wider); evicted[d.key] {
		t.Errorf("donor %q was evicted from the store", d.key)
	}
	if d := miss(wider); d != -1 {
		t.Errorf("a near-miss of evicted plans was seeded (seed distance %v)", d)
	}
	if st := s.Stats(); st.SynthIncremental != 1 {
		t.Errorf("synth_incremental = %d, want 1 (the near-miss of the cached base only)", st.SynthIncremental)
	}
}

// TestConcurrentNearMissesSeedFromOneDonor: two near-misses in flight at once
// both seed from one cached donor. The donor's graph is shared read-only by
// both binds, segmented plans bind to copies of it, and it still hashes to
// the key it is stored under.
func TestConcurrentNearMissesSeedFromOneDonor(t *testing.T) {
	s := New(Config{})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	c := testCluster()
	opts := RequestOptions{Segments: 2}
	base := seedServeGraph(64, 96, 96, 96, 96, 96, 96, 32)
	if a := ask(t, srv.URL, requestBody(t, base, c, opts), ""); a.status != http.StatusOK {
		t.Fatalf("donor request: status %d: %s", a.status, a.body)
	}
	near := []*graph.Graph{
		seedServeGraph(64, 96, 96, 112, 96, 96, 96, 32),
		seedServeGraph(64, 96, 96, 96, 96, 112, 96, 32),
	}
	traces := make([]string, len(near))
	plans := make([][]byte, len(near))
	var wg sync.WaitGroup
	for i, g := range near {
		body := requestBody(t, g, c, opts)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(srv.URL+"/v1/synthesize", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			traces[i] = resp.Header.Get(obs.TraceHeader)
			plans[i], _ = io.ReadAll(resp.Body)
		}(i)
	}
	wg.Wait()
	for i, g := range near {
		if traces[i] == "" || seedDistance(t, srv.URL, answer{trace: traces[i]}) == -1 {
			t.Fatalf("near-miss %d was not seeded", i)
		}
		p, err := hap.ReadProgramBinary(bytes.NewReader(plans[i]), g)
		if err != nil {
			t.Fatalf("near-miss %d: %v", i, err)
		}
		if n := p.Program.Graph.NumSegments(); n != 2 || len(p.Ratios) != 2 {
			t.Errorf("near-miss %d: the plan's graph has %d segments, %d ratio rows, want 2", i, n, len(p.Ratios))
		}
		if err := hap.Verify(p, c.M(), 7); err != nil {
			t.Errorf("near-miss %d fails verification: %v", i, err)
		}
	}
	v, ok := s.store.Get(cacheKey(base, c, opts))
	if !ok || v.src == nil {
		t.Fatal("the donor left the store")
	}
	if got, want := graph.Fingerprint(v.src.g), graph.Fingerprint(base); got != want {
		t.Errorf("the donor's graph hashes to %s, want %s: a seeded search or bind wrote it", got, want)
	}
	if st := s.Stats(); st.SynthIncremental != 2 {
		t.Errorf("synth_incremental = %d, want 2", st.SynthIncremental)
	}
}
