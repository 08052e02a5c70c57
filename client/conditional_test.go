// Tests for WithConditionalFetch: repeat syntheses revalidate with
// If-None-Match and resolve 304s from the client-side byte cache, and a
// server-side plan swap (a drift-triggered replan) transparently delivers
// the new plan on the next fetch.

package client

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"hap"
	"hap/internal/serve"
)

// statusRecorder captures the status code a handler wrote.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

// newRecordingServer wraps the daemon so the test can observe response
// statuses — the only externally visible difference between a full response
// and a 304 revalidation. Only plan answers are recorded: a need_body answer
// to a key-only request is the first half of a request, not a response to it.
func newRecordingServer(t *testing.T, cfg serve.Config) (*httptest.Server, func() []int) {
	t.Helper()
	s := serve.New(cfg)
	t.Cleanup(s.Close)
	h := s.Handler()
	var mu sync.Mutex
	var codes []int
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		h.ServeHTTP(rec, r)
		if w.Header().Get("X-HAP-Cache") == serve.NeedBody {
			return
		}
		mu.Lock()
		codes = append(codes, rec.code)
		mu.Unlock()
	}))
	t.Cleanup(srv.Close)
	return srv, func() []int {
		mu.Lock()
		defer mu.Unlock()
		return append([]int(nil), codes...)
	}
}

func TestClientConditionalFetch(t *testing.T) {
	srv, codes := newRecordingServer(t, serve.Config{})
	c := testCluster()
	cl := New(srv.URL, WithConditionalFetch())

	g := testGraph(t)
	plan1, err := cl.Synthesize(context.Background(), g, c, Options{})
	if err != nil {
		t.Fatalf("first Synthesize: %v", err)
	}
	if err := hap.Verify(plan1, c.M(), 5); err != nil {
		t.Fatalf("first plan fails verification: %v", err)
	}

	// Repeat: the client revalidates, the server answers 304, and the plan
	// still comes back fully usable — decoded from the client's byte cache.
	plan2, err := cl.Synthesize(context.Background(), g, c, Options{})
	if err != nil {
		t.Fatalf("repeat Synthesize: %v", err)
	}
	if err := hap.Verify(plan2, c.M(), 5); err != nil {
		t.Errorf("revalidated plan fails verification: %v", err)
	}
	got := codes()
	if len(got) != 2 || got[0] != http.StatusOK || got[1] != http.StatusNotModified {
		t.Fatalf("response statuses = %v, want [200 304]", got)
	}

	// A fresh graph value with the same fingerprint must also work: the
	// cache stores bytes, and plans re-bind per call.
	plan3, err := cl.Synthesize(context.Background(), testGraph(t), c, Options{})
	if err != nil {
		t.Fatalf("Synthesize with rebuilt graph: %v", err)
	}
	if err := hap.Verify(plan3, c.M(), 5); err != nil {
		t.Errorf("rebuilt-graph plan fails verification: %v", err)
	}
	if got := codes(); len(got) != 3 || got[2] != http.StatusNotModified {
		t.Fatalf("response statuses = %v, want a third 304", got)
	}
}

// TestClientConditionalFetchDisabledByDefault: without the option, repeat
// requests send no validator and always transfer the full plan.
func TestClientConditionalFetchDisabledByDefault(t *testing.T) {
	srv, codes := newRecordingServer(t, serve.Config{})
	c := testCluster()
	cl := New(srv.URL)
	g := testGraph(t)
	for i := 0; i < 2; i++ {
		if _, err := cl.Synthesize(context.Background(), g, c, Options{}); err != nil {
			t.Fatalf("Synthesize %d: %v", i, err)
		}
	}
	for i, code := range codes() {
		if code != http.StatusOK {
			t.Errorf("response %d: status %d, want 200 (no conditional fetch configured)", i, code)
		}
	}
}
