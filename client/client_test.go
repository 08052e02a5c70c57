package client

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"hap"
	"hap/internal/cluster"
	"hap/internal/graph"
	"hap/internal/serve"
)

func testGraph(t *testing.T) *hap.Graph {
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

func testCluster() *hap.Cluster {
	return hap.PerGPU(
		hap.MachineSpec{Type: hap.V100, GPUs: 1},
		hap.MachineSpec{Type: hap.P100, GPUs: 1},
	)
}

func newServer(t *testing.T, cfg serve.Config) (*serve.Server, *httptest.Server) {
	t.Helper()
	s := serve.New(cfg)
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	return s, srv
}

// The plan the client decodes from the daemon's binary answer is bound to the
// caller's graph and verifies, exactly like a local synthesis.
func TestClientSynthesizeBinaryDefault(t *testing.T) {
	s, srv := newServer(t, serve.Config{})
	c := testCluster()
	cl := New(srv.URL)

	g := testGraph(t)
	plan, err := cl.Synthesize(context.Background(), g, c, Options{})
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	if err := hap.Verify(plan, c.M(), 5); err != nil {
		t.Errorf("Verify: %v", err)
	}
	local, err := hap.NewPlanner(c).Plan(context.Background(), testGraph(t))
	if err != nil {
		t.Fatal(err)
	}
	if plan.Program.String() != local.Program.String() {
		t.Error("remote plan differs from local plan")
	}

	// Second call: a cache hit server-side, same plan client-side.
	again, err := cl.Synthesize(context.Background(), testGraph(t), c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if again.Program.String() != plan.Program.String() {
		t.Error("repeat synthesis returned a different plan")
	}
	if st := s.Stats(); st.Syntheses != 1 || st.CacheHits != 1 {
		t.Errorf("stats = %d syntheses / %d hits, want 1/1", st.Syntheses, st.CacheHits)
	}
}

// A daemon that answers a plan as JSON sent what the client cannot decode:
// the call fails like any other malformed answer.
func TestClientRefusesJSONAnswer(t *testing.T) {
	plan, err := hap.NewPlanner(testCluster()).Plan(context.Background(), testGraph(t))
	if err != nil {
		t.Fatal(err)
	}
	var js strings.Builder
	if err := plan.WriteProgram(&js); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, js.String())
	}))
	t.Cleanup(srv.Close)
	_, err = New(srv.URL).Synthesize(context.Background(), testGraph(t), testCluster(), Options{})
	if err == nil || !strings.Contains(err.Error(), "decoding binary plan") {
		t.Errorf("err = %v, want a binary decode error", err)
	}
}

// Server errors surface as *APIError with the envelope's code.
func TestClientAPIError(t *testing.T) {
	_, srv := newServer(t, serve.Config{})
	// A graph with no trainable outputs synthesizes to nothing: 422.
	g := hap.NewGraph()
	g.AddPlaceholder("x", 0, 4, 4)
	_, err := New(srv.URL).Synthesize(context.Background(), g, testCluster(), Options{})
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("err = %v (%T), want *APIError", err, err)
	}
	if apiErr.Status != http.StatusUnprocessableEntity || apiErr.Code != "synthesis_failed" {
		t.Errorf("APIError = %+v, want 422/synthesis_failed", apiErr)
	}
	if !strings.Contains(apiErr.Error(), "synthesis_failed") {
		t.Errorf("Error() = %q, want the code included", apiErr.Error())
	}
}

// Cancelling the client context aborts the server-side synthesis: the
// stubbed planner blocks until its ctx dies and reports what it saw.
func TestClientContextCancelReachesServer(t *testing.T) {
	started := make(chan struct{})
	var mu sync.Mutex
	var serverCtxErr error
	_, srv := newServer(t, serve.Config{
		Synthesize: func(ctx context.Context, g *graph.Graph, c *cluster.Cluster, opt hap.Options) (*hap.Plan, error) {
			close(started)
			<-ctx.Done()
			mu.Lock()
			serverCtxErr = ctx.Err()
			mu.Unlock()
			return nil, ctx.Err()
		},
	})
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := New(srv.URL).Synthesize(ctx, testGraph(t), testCluster(), Options{})
		errc <- err
	}()
	<-started
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("client err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled client call did not return")
	}
	// The server-side context must have died too (the HTTP request context
	// follows the client connection).
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		err := serverCtxErr
		mu.Unlock()
		if err != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("server-side synthesis context never died after client cancel")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// Healthz reports the server's protocol version.
func TestClientHealthz(t *testing.T) {
	_, srv := newServer(t, serve.Config{})
	proto, err := New(srv.URL).Healthz(context.Background())
	if err != nil {
		t.Fatalf("Healthz: %v", err)
	}
	if proto != serve.ProtocolVersion {
		t.Errorf("protocol = %q, want %q", proto, serve.ProtocolVersion)
	}
}

// WithTracing stamps every request with a fresh trace ID the server adopts,
// and a failing call surfaces that ID in APIError.TraceID — the handle for
// GET /v1/debug/traces/<id> on the daemon.
func TestClientTracing(t *testing.T) {
	var mu sync.Mutex
	var sentIDs []string
	_, srv := newServer(t, serve.Config{})
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		sentIDs = append(sentIDs, r.Header.Get("X-HAP-Trace"))
		mu.Unlock()
		resp, err := http.Post(srv.URL+r.URL.Path, r.Header.Get("Content-Type"), r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		for k, vs := range resp.Header {
			for _, v := range vs {
				w.Header().Add(k, v)
			}
		}
		w.WriteHeader(resp.StatusCode)
		io.Copy(w, resp.Body)
	}))
	t.Cleanup(proxy.Close)

	cl := New(srv.URL, WithTracing())
	if _, err := cl.Synthesize(context.Background(), testGraph(t), testCluster(), Options{}); err != nil {
		t.Fatalf("Synthesize: %v", err)
	}

	// A failing request: the error carries the trace ID the server echoed.
	g := hap.NewGraph()
	g.AddPlaceholder("x", 0, 4, 4)
	_, err := cl.Synthesize(context.Background(), g, testCluster(), Options{})
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("err = %v (%T), want *APIError", err, err)
	}
	if len(apiErr.TraceID) != 16 {
		t.Fatalf("APIError.TraceID = %q, want a 16-hex trace ID", apiErr.TraceID)
	}
	if !strings.Contains(apiErr.Error(), apiErr.TraceID) {
		t.Errorf("Error() = %q, want the trace ID included", apiErr.Error())
	}

	// The header actually leaves the client, fresh per logical request.
	cl2 := New(proxy.URL, WithTracing())
	if _, err := cl2.Synthesize(context.Background(), testGraph(t), testCluster(), Options{}); err != nil {
		t.Fatalf("Synthesize via recording proxy: %v", err)
	}
	if _, err := cl2.Synthesize(context.Background(), testGraph(t), testCluster(), Options{}); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(sentIDs) != 2 {
		t.Fatalf("proxy saw %d requests, want 2", len(sentIDs))
	}
	for _, id := range sentIDs {
		if len(id) != 16 {
			t.Errorf("request trace header %q, want 16 hex chars", id)
		}
	}
	if sentIDs[0] == sentIDs[1] {
		t.Error("two logical requests shared one trace ID")
	}
}
