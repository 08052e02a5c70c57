// Tests for the key-first request flow: what leaves the client on a hit and
// on a miss, the fallback against a daemon from before the key form, and the
// purity of the request — the caller's graph is never written to.

package client

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"

	"hap"
	"hap/internal/serve"
)

// sent is one request as it left the client.
type sent struct {
	keyOnly bool
	bytes   int
	traceID string
	cache   string // the daemon's X-HAP-Cache answer
}

// newObservedServer puts a recording front on a real daemon.
func newObservedServer(t *testing.T, cfg serve.Config) (*serve.Server, string, func() []sent) {
	t.Helper()
	s := serve.New(cfg)
	h := s.Handler()
	var mu sync.Mutex
	var log []sent
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		var req struct {
			Key   string          `json:"key"`
			Graph json.RawMessage `json:"graph"`
		}
		json.Unmarshal(body, &req)
		r.Body = io.NopCloser(bytes.NewReader(body))
		h.ServeHTTP(w, r)
		mu.Lock()
		log = append(log, sent{req.Key != "" && len(req.Graph) == 0, len(body), r.Header.Get("X-HAP-Trace"), w.Header().Get("X-HAP-Cache")})
		mu.Unlock()
	}))
	t.Cleanup(srv.Close)
	return s, srv.URL, func() []sent {
		mu.Lock()
		defer mu.Unlock()
		return append([]sent(nil), log...)
	}
}

// A miss is a key, a need_body answer, then the full request — one logical
// call, one trace ID, exactly one counted miss. A hit is the key alone: no
// graph is encoded or uploaded.
func TestClientKeyFirst(t *testing.T) {
	s, url, log := newObservedServer(t, serve.Config{})
	c := testCluster()
	cl := New(url, WithTracing())

	plan, err := cl.Synthesize(context.Background(), testGraph(t), c, Options{})
	if err != nil {
		t.Fatalf("first Synthesize: %v", err)
	}
	if err := hap.Verify(plan, c.M(), 5); err != nil {
		t.Errorf("Verify: %v", err)
	}
	again, err := cl.Synthesize(context.Background(), testGraph(t), c, Options{})
	if err != nil {
		t.Fatalf("repeat Synthesize: %v", err)
	}
	if again.Program.String() != plan.Program.String() {
		t.Error("the hit returned a different plan than the miss")
	}

	got := log()
	if len(got) != 3 {
		t.Fatalf("daemon saw %d requests, want 3 (key, full body, key): %+v", len(got), got)
	}
	for i, want := range []sent{{keyOnly: true, cache: "need_body"}, {keyOnly: false, cache: "miss"}, {keyOnly: true, cache: "hit"}} {
		if got[i].keyOnly != want.keyOnly || got[i].cache != want.cache {
			t.Errorf("request %d: key-only=%v answered %q, want key-only=%v answered %q", i, got[i].keyOnly, got[i].cache, want.keyOnly, want.cache)
		}
	}
	if got[0].bytes > 128 || got[2].bytes > 128 || got[1].bytes < 10*got[0].bytes {
		t.Errorf("request sizes %d/%d/%d bytes: the key form should be tiny beside the full body", got[0].bytes, got[1].bytes, got[2].bytes)
	}
	if got[0].traceID == "" || got[0].traceID != got[1].traceID || got[2].traceID == got[0].traceID {
		t.Errorf("trace IDs %q/%q/%q: the two requests of one call share an ID, the next call draws a new one", got[0].traceID, got[1].traceID, got[2].traceID)
	}
	if st := s.Stats(); st.CacheHits != 1 || st.CacheMisses != 1 || st.Syntheses != 1 || st.Errors != 0 {
		t.Errorf("daemon counted %d hits / %d misses / %d syntheses / %d errors, want 1/1/1/0", st.CacheHits, st.CacheMisses, st.Syntheses, st.Errors)
	}
}

// The bug the benchmark tripped over: a segmented plan's assignment used to
// be adopted onto the caller's graph, so sending the same graph value again
// hashed and encoded differently and missed once more. The request is a pure
// function of the caller's input: one miss, then hits, and g is untouched.
func TestClientResendSegmentedGraph(t *testing.T) {
	s, url, _ := newObservedServer(t, serve.Config{})
	c := testCluster()
	g := testGraph(t)
	before := *g
	for _, cl := range []*Client{New(url), New(url, WithConditionalFetch())} {
		for i := 0; i < 2; i++ {
			plan, err := cl.Synthesize(context.Background(), g, c, Options{Segments: 4})
			if err != nil {
				t.Fatalf("Synthesize: %v", err)
			}
			if len(g.SegmentOf) != 0 || !reflect.DeepEqual(*g, before) {
				t.Fatalf("Synthesize wrote to the caller's graph (SegmentOf now %v)", g.SegmentOf)
			}
			if bound := plan.Program.Graph; len(bound.SegmentOf) != g.NumNodes() || len(plan.Ratios) != bound.NumSegments() || bound.NumSegments() < 2 {
				t.Fatalf("plan's graph has %d segment entries for %d nodes, %d ratio rows for %d segments", len(bound.SegmentOf), g.NumNodes(), len(plan.Ratios), bound.NumSegments())
			}
			if err := hap.Verify(plan, c.M(), 5); err != nil {
				t.Errorf("Verify: %v", err)
			}
		}
	}
	if st := s.Stats(); st.CacheMisses != 1 || st.CacheHits != 3 || st.Syntheses != 1 || st.Errors != 0 {
		t.Errorf("one graph value sent four times: %d misses / %d hits / %d syntheses / %d errors, want 1/3/1/0", st.CacheMisses, st.CacheHits, st.Syntheses, st.Errors)
	}
}

// Against a daemon that predates the key form — it answers a body without
// graph and cluster 400 bad_request — the client asks by key once, then sends
// full bodies for the rest of its lifetime, and every call still succeeds.
func TestClientFallsBackOnOldDaemon(t *testing.T) {
	s := serve.New(serve.Config{})
	h := s.Handler()
	var mu sync.Mutex
	var keyOnly, full int
	old := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		var req struct {
			Graph json.RawMessage `json:"graph"`
		}
		json.Unmarshal(body, &req)
		mu.Lock()
		defer mu.Unlock()
		if len(req.Graph) == 0 {
			keyOnly++
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusBadRequest)
			io.WriteString(w, `{"code":"bad_request","message":"bad request: graph and cluster are required"}`)
			return
		}
		full++
		r.Body = io.NopCloser(bytes.NewReader(body))
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(old.Close)

	c := testCluster()
	cl := New(old.URL, WithConditionalFetch())
	var first *hap.Plan
	for i := 0; i < 3; i++ {
		plan, err := cl.Synthesize(context.Background(), testGraph(t), c, Options{})
		if err != nil {
			t.Fatalf("Synthesize %d against the old daemon: %v", i, err)
		}
		if err := hap.Verify(plan, c.M(), 5); err != nil {
			t.Errorf("call %d: %v", i, err)
		}
		if first == nil {
			first = plan
		} else if plan.Program.String() != first.Program.String() {
			t.Errorf("call %d returned a different plan", i)
		}
	}
	if keyOnly != 1 || full != 3 {
		t.Errorf("old daemon saw %d key-only and %d full requests, want 1 and 3", keyOnly, full)
	}
	if st := s.Stats(); st.CacheMisses != 1 || st.CacheHits != 2 || st.Errors != 0 {
		t.Errorf("behind the stub: %d misses / %d hits / %d errors, want 1/2/0", st.CacheMisses, st.CacheHits, st.Errors)
	}
	// A second client starts over: the latch is per client, not global.
	if _, err := New(old.URL).Synthesize(context.Background(), testGraph(t), c, Options{}); err != nil {
		t.Fatal(err)
	}
	if keyOnly != 2 {
		t.Errorf("a fresh client sent %d key-only requests in total, want 2", keyOnly)
	}
}

// A server error on the key request that is not the old daemon's 400 is the
// call's error: the client does not paper over it with a second request.
func TestClientKeyRequestErrorsSurface(t *testing.T) {
	var calls int
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls++
		w.WriteHeader(http.StatusInternalServerError)
		io.WriteString(w, `{"code":"internal","message":"boom"}`)
	}))
	t.Cleanup(srv.Close)
	_, err := New(srv.URL).Synthesize(context.Background(), testGraph(t), testCluster(), Options{})
	if apiErr, ok := err.(*APIError); !ok || apiErr.Status != http.StatusInternalServerError {
		t.Errorf("err = %v, want the 500 as *APIError", err)
	}
	if calls != 1 {
		t.Errorf("server saw %d requests, want 1", calls)
	}
}
