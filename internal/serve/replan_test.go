// Tests for what a background replan shares with the request paths: the
// admission gate's slots, and nothing mutable.

package serve

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"hap"
	"hap/internal/cluster"
	"hap/internal/graph"
	"hap/internal/telemetry"
)

// driftReport is a probe batch that puts spec well past the drift threshold.
func driftReport(t *testing.T, spec *cluster.Cluster) []byte {
	t.Helper()
	return telemetryBody(t, spec, TelemetryRequest{
		Links:   []telemetry.LinkSample{{FromMachine: 0, ToMachine: 1, Bandwidth: spec.Net.InterBW * 0.5}},
		Devices: []telemetry.DeviceSample{{Device: 0, TFLOPS: achievedTFLOPS(spec, 0) * 0.5}},
	})
}

// TestAdmissionGatesReplans: background replans claim synthesis slots like
// any other search. With one slot held by a request, a drift report over two
// cached entries starts no replan — the old plans keep serving and nothing is
// counted as shed — and once the slot frees, further reports replan both
// entries one at a time.
func TestAdmissionGatesReplans(t *testing.T) {
	var running, peak atomic.Int64
	holdFP := altCluster().Fingerprint()
	started, release := make(chan struct{}, 1), make(chan struct{})
	s := New(Config{
		MaxInflightSynth: 1,
		Synthesize: func(ctx context.Context, g *graph.Graph, c *cluster.Cluster, opt hap.Options) (*hap.Plan, error) {
			n := running.Add(1)
			defer running.Add(-1)
			for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
			}
			if c.Fingerprint() == holdFP {
				started <- struct{}{}
				select {
				case <-release:
				case <-ctx.Done():
					return nil, ctx.Err()
				}
			}
			return hap.NewPlanner(c, hap.WithOptions(opt)).Plan(ctx, g)
		},
	})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	spec := testCluster()
	bodies := [][]byte{
		requestBody(t, testGraph(t), spec, RequestOptions{}),
		requestBody(t, seedServeGraph(32, 48, 8), spec, RequestOptions{}),
	}
	for i, b := range bodies {
		if status, _, ver, raw := postConditional(t, srv.URL, b, ""); status != http.StatusOK || ver != "1" {
			t.Fatalf("fill %d: status %d version %q: %s", i, status, ver, raw)
		}
	}

	// A request for another cluster takes the only slot and keeps it.
	held := make(chan struct{})
	go func() {
		defer close(held)
		resp, err := http.Post(srv.URL+"/v1/synthesize", "application/json",
			bytes.NewReader(requestBody(t, testGraph(t), altCluster(), RequestOptions{})))
		if err != nil {
			t.Error(err)
			return
		}
		resp.Body.Close()
	}()
	<-started

	status, tr, raw := postTelemetry(t, srv.URL, driftReport(t, spec))
	if status != http.StatusOK || !tr.Drifted {
		t.Fatalf("drift report: status %d drifted=%v: %s", status, tr.Drifted, raw)
	}
	if tr.ReplansStarted != 0 {
		t.Errorf("report started %d replans with every slot busy, want 0", tr.ReplansStarted)
	}
	if st := s.Stats(); st.InflightSynth != 1 || st.AdmissionShed != 0 {
		t.Errorf("with the slot held: inflight_synth %d, admission_shed %d; want 1 and 0 (a deferred replan is not a refused request)", st.InflightSynth, st.AdmissionShed)
	}
	for i, b := range bodies {
		if status, _, ver, _ := postConditional(t, srv.URL, b, ""); status != http.StatusOK || ver != "1" {
			t.Errorf("entry %d while its replan waits: status %d version %q, want the old plan", i, status, ver)
		}
	}
	close(release)
	<-held

	// The next reports start what the first could not. One slot: one replan
	// per report at most, so it takes at least two.
	deadline := time.Now().Add(30 * time.Second)
	for swapped := 0; swapped < len(bodies); {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d entries replanned", swapped, len(bodies))
		}
		if status, _, raw := postTelemetry(t, srv.URL, driftReport(t, spec)); status != http.StatusOK {
			t.Fatalf("drift report: status %d: %s", status, raw)
		}
		if n := s.Stats().InflightSynth; n > 1 {
			t.Fatalf("inflight_synth = %d with a cap of 1", n)
		}
		time.Sleep(20 * time.Millisecond)
		swapped = 0
		for _, b := range bodies {
			if _, _, ver, _ := postConditional(t, srv.URL, b, ""); ver != "1" {
				swapped++
			}
		}
	}
	for replanning := 1; replanning > 0; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("replans never quiesced")
		}
		s.telemetry.mu.Lock()
		replanning = len(s.telemetry.replan)
		s.telemetry.mu.Unlock()
	}
	if p := peak.Load(); p > 1 {
		t.Errorf("%d planner calls ran at once under -max-inflight-synth 1", p)
	}
	if st := s.Stats(); st.InflightSynth != 0 || st.AdmissionShed != 0 || st.Telemetry.ReplanErrors != 0 {
		t.Errorf("after quiescence: inflight_synth %d, admission_shed %d, replan_errors %d; want all 0",
			st.InflightSynth, st.AdmissionShed, st.Telemetry.ReplanErrors)
	}
}

// TestBatchSiblingsReplanConcurrently: two entries filled by two requests for
// one graph share that graph's wire bytes, not a decoded value. Both specs
// drift at once, their replans — segmented, so each search assigns segments
// onto the graph it plans — overlap, and both verify and swap. Run under
// -race.
func TestBatchSiblingsReplanConcurrently(t *testing.T) {
	var armed atomic.Bool
	var arrived atomic.Int64
	both := make(chan struct{})
	s := New(Config{
		// Armed once the fill has returned, so every call counted here is a
		// replan: hold the first until its sibling arrives, so the searches
		// overlap.
		Synthesize: func(ctx context.Context, g *graph.Graph, c *cluster.Cluster, opt hap.Options) (*hap.Plan, error) {
			if armed.Load() {
				if arrived.Add(1) == 2 {
					close(both)
				}
				select {
				case <-both:
				case <-ctx.Done():
					return nil, ctx.Err()
				}
			}
			return hap.NewPlanner(c, hap.WithOptions(opt)).Plan(ctx, g)
		},
	})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	specs := []*cluster.Cluster{testCluster(), altCluster()}
	opts := RequestOptions{Segments: 2}

	for i, spec := range specs {
		if status, _, raw := post(t, srv.URL, requestBody(t, testGraph(t), spec, opts)); status != http.StatusOK {
			t.Fatalf("fill %d: status %d: %s", i, status, raw)
		}
	}
	armed.Store(true)
	for i, spec := range specs {
		status, tr, raw := postTelemetry(t, srv.URL, driftReport(t, spec))
		if status != http.StatusOK || tr.ReplansStarted != 1 {
			t.Fatalf("drift report %d: status %d replans=%d: %s", i, status, tr.ReplansStarted, raw)
		}
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		ts := s.Stats().Telemetry
		if ts.ReplanErrors != 0 {
			t.Fatalf("%d replans failed to synthesize or verify", ts.ReplanErrors)
		}
		if ts.Replans+ts.ReplansUnchanged == uint64(len(specs)) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replans never completed: %+v", ts)
		}
		time.Sleep(10 * time.Millisecond)
	}
	for i, spec := range specs {
		_, _, _, plan := postConditional(t, srv.URL, requestBody(t, testGraph(t), spec, opts), "")
		p, err := hap.ReadProgramBinary(bytes.NewReader(plan), testGraph(t))
		if err != nil {
			t.Fatalf("replanned plan %d does not decode: %v", i, err)
		}
		if err := hap.Verify(p, spec.M(), 7); err != nil {
			t.Errorf("replanned plan %d fails verification: %v", i, err)
		}
	}
}

// TestDriftReportPromotesNothing: the replan scan reads the store without
// touching recency. With room for two plans, a drift report whose replan of
// the older one comes back unchanged leaves that plan at the LRU tail, so the
// next insert evicts it and not the plan nobody reported on.
func TestDriftReportPromotesNothing(t *testing.T) {
	spec, alt := testCluster(), altCluster()
	altFP := alt.Fingerprint()
	s := New(Config{
		MaxCacheEntries: 2,
		// Anything but alt plans on spec, so the drifted replan reproduces
		// the cached bytes exactly.
		Synthesize: func(ctx context.Context, g *graph.Graph, c *cluster.Cluster, opt hap.Options) (*hap.Plan, error) {
			if c.Fingerprint() != altFP {
				c = spec
			}
			return planWith(g, c, opt)
		},
	})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	reported, other := testGraph(t), seedServeGraph(32, 48, 8)
	for _, b := range [][]byte{
		requestBody(t, reported, spec, RequestOptions{}),
		requestBody(t, other, alt, RequestOptions{}),
	} {
		if status, _, raw := post(t, srv.URL, b); status != http.StatusOK {
			t.Fatalf("fill: status %d: %s", status, raw)
		}
	}

	if status, tr, raw := postTelemetry(t, srv.URL, driftReport(t, spec)); status != http.StatusOK || tr.ReplansStarted != 1 {
		t.Fatalf("drift report: status %d replans=%d: %s", status, tr.ReplansStarted, raw)
	}
	deadline := time.Now().Add(30 * time.Second)
	for s.Stats().Telemetry.ReplansUnchanged != 1 {
		if ts := s.Stats().Telemetry; ts.Replans+ts.ReplanErrors != 0 || time.Now().After(deadline) {
			t.Fatalf("the replan did not come back unchanged: %+v", ts)
		}
		time.Sleep(5 * time.Millisecond)
	}

	if status, _, raw := post(t, srv.URL, requestBody(t, reported, alt, RequestOptions{})); status != http.StatusOK {
		t.Fatalf("insert: status %d: %s", status, raw)
	}
	if holds(s.store, cacheKey(reported, spec, RequestOptions{})) {
		t.Error("the reported plan survived the next insert: the drift report promoted it")
	}
	if !holds(s.store, cacheKey(other, alt, RequestOptions{})) {
		t.Error("the plan no report touched was evicted in place of the reported one")
	}
}

// TestReplanOntoSameBytesKeepsTagAndVersion: a drift replan whose binary
// payload comes back byte-identical swaps nothing. The entry keeps its ETag
// and version, a warm client's revalidation still answers 304, and the replan
// is counted as unchanged.
func TestReplanOntoSameBytesKeepsTagAndVersion(t *testing.T) {
	spec := testCluster()
	s := New(Config{
		// The drifted view plans on spec, so the replan reproduces the
		// cached payload exactly.
		Synthesize: func(ctx context.Context, g *graph.Graph, _ *cluster.Cluster, opt hap.Options) (*hap.Plan, error) {
			return planWith(g, spec, opt)
		},
	})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	body := requestBody(t, testGraph(t), spec, RequestOptions{})
	status, etag1, ver1, plan1 := postConditional(t, srv.URL, body, "")
	if status != http.StatusOK || ver1 != "1" || etag1 != ETagFor(plan1) {
		t.Fatalf("fill: status %d version %q tag %s, want 200, 1 and the payload's hash", status, ver1, etag1)
	}

	if status, tr, raw := postTelemetry(t, srv.URL, driftReport(t, spec)); status != http.StatusOK || tr.ReplansStarted != 1 {
		t.Fatalf("drift report: status %d replans=%d: %s", status, tr.ReplansStarted, raw)
	}
	deadline := time.Now().Add(30 * time.Second)
	for s.Stats().Telemetry.ReplansUnchanged != 1 {
		if ts := s.Stats().Telemetry; ts.Replans+ts.ReplanErrors != 0 || time.Now().After(deadline) {
			t.Fatalf("the replan did not come back unchanged: %+v", ts)
		}
		time.Sleep(5 * time.Millisecond)
	}

	status, etag, ver, plan := postConditional(t, srv.URL, body, "")
	if status != http.StatusOK || etag != etag1 || ver != ver1 || !bytes.Equal(plan, plan1) {
		t.Errorf("after the unchanged replan: status %d tag %s version %q, same bytes %v; want %s, %q and true", status, etag, ver, bytes.Equal(plan, plan1), etag1, ver1)
	}
	if status, _, _, _ := postConditional(t, srv.URL, body, etag1); status != http.StatusNotModified {
		t.Errorf("revalidation after the unchanged replan: status %d, want 304", status)
	}
}
