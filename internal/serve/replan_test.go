// Tests for what a drift re-solve shares with the request paths: the store,
// the decoded graph of each entry's source, and nothing mutable.

package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"hap"
	"hap/internal/cluster"
	"hap/internal/telemetry"
)

// driftReport is a probe batch that puts spec well past the drift threshold.
func driftReport(t testing.TB, spec *cluster.Cluster) []byte {
	t.Helper()
	return telemetryBody(t, spec, TelemetryRequest{
		Links:   []telemetry.LinkSample{{FromMachine: 0, ToMachine: 1, Bandwidth: spec.Net.InterBW * 0.5}},
		Devices: []telemetry.DeviceSample{{Device: 0, TFLOPS: achievedTFLOPS(spec, 0) * 0.5}},
	})
}

// intraDriftReport drifts spec past the threshold on the intra-machine link
// alone. Every machine of testCluster and altCluster holds one GPU, so no
// collective crosses that link: the re-solve reproduces the cached plan byte
// for byte.
func intraDriftReport(t testing.TB, spec *cluster.Cluster) []byte {
	t.Helper()
	return telemetryBody(t, spec, TelemetryRequest{
		Links: []telemetry.LinkSample{{FromMachine: 0, ToMachine: 0, Bandwidth: spec.Net.IntraBW * 0.5}},
	})
}

// TestBatchSiblingsReplanConcurrently: two entries planned for one graph on
// two clusters, segmented so each re-solve binds the plan's segment
// assignment onto a copy of its source graph. Both specs drift at once — two
// reports in flight together — and both re-solves swap and verify. Run under
// -race.
func TestBatchSiblingsReplanConcurrently(t *testing.T) {
	s := New(Config{})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	specs := []*cluster.Cluster{testCluster(), altCluster()}
	opts := RequestOptions{Segments: 2}

	for i, spec := range specs {
		if status, _, raw := post(t, srv.URL, requestBody(t, testGraph(t), spec, opts)); status != http.StatusOK {
			t.Fatalf("fill %d: status %d: %s", i, status, raw)
		}
	}
	var wg sync.WaitGroup
	for i, spec := range specs {
		wg.Add(1)
		go func(i int, report []byte) {
			defer wg.Done()
			resp, err := http.Post(srv.URL+"/v1/telemetry", "application/json", bytes.NewReader(report))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			var tr TelemetryResponse
			if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil || resp.StatusCode != http.StatusOK || tr.ReplansStarted != 1 {
				t.Errorf("drift report %d: status %d replans=%d (%v)", i, resp.StatusCode, tr.ReplansStarted, err)
			}
		}(i, driftReport(t, spec))
	}
	wg.Wait()
	if ts := s.Stats().Telemetry; ts.ReplanErrors != 0 || ts.Replans != uint64(len(specs)) {
		t.Fatalf("replans %d, replan_errors %d; want %d and 0", ts.Replans, ts.ReplanErrors, len(specs))
	}
	for i, spec := range specs {
		_, _, ver, plan := postConditional(t, srv.URL, requestBody(t, testGraph(t), spec, opts), "")
		if ver != "2" {
			t.Errorf("plan %d is at version %q, want 2", i, ver)
		}
		p, err := hap.ReadProgramBinary(bytes.NewReader(plan), testGraph(t))
		if err != nil {
			t.Fatalf("replanned plan %d does not decode: %v", i, err)
		}
		if err := hap.Verify(p, spec.M(), 7); err != nil {
			t.Errorf("replanned plan %d fails verification: %v", i, err)
		}
	}
}

// TestDriftReportPromotesNothing: the drift scan reads the store without
// touching recency. With room for two plans, a drift report whose re-solve of
// the older one comes back unchanged leaves that plan at the LRU tail, so the
// next insert evicts it and not the plan nobody reported on.
func TestDriftReportPromotesNothing(t *testing.T) {
	spec, alt := testCluster(), altCluster()
	s := New(Config{MaxCacheEntries: 2})
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

	if status, tr, raw := postTelemetry(t, srv.URL, intraDriftReport(t, spec)); status != http.StatusOK || tr.ReplansStarted != 1 {
		t.Fatalf("drift report: status %d replans=%d: %s", status, tr.ReplansStarted, raw)
	}
	if ts := s.Stats().Telemetry; ts.ReplansUnchanged != 1 || ts.Replans+ts.ReplanErrors != 0 {
		t.Fatalf("the replan did not come back unchanged: %+v", ts)
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

// TestReplanOntoSameBytesKeepsTagAndVersion: a drift re-solve whose binary
// payload comes back byte-identical swaps nothing. The entry keeps its ETag
// and version, a warm client's revalidation still answers 304, and the replan
// is counted as unchanged.
func TestReplanOntoSameBytesKeepsTagAndVersion(t *testing.T) {
	spec := testCluster()
	s := New(Config{})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	body := requestBody(t, testGraph(t), spec, RequestOptions{})
	status, etag1, ver1, plan1 := postConditional(t, srv.URL, body, "")
	if status != http.StatusOK || ver1 != "1" || etag1 != ETagFor(plan1) {
		t.Fatalf("fill: status %d version %q tag %s, want 200, 1 and the payload's hash", status, ver1, etag1)
	}

	if status, tr, raw := postTelemetry(t, srv.URL, intraDriftReport(t, spec)); status != http.StatusOK || tr.ReplansStarted != 1 {
		t.Fatalf("drift report: status %d replans=%d: %s", status, tr.ReplansStarted, raw)
	}
	if ts := s.Stats().Telemetry; ts.ReplansUnchanged != 1 || ts.Replans+ts.ReplanErrors != 0 {
		t.Fatalf("the replan did not come back unchanged: %+v", ts)
	}

	status, etag, ver, plan := postConditional(t, srv.URL, body, "")
	if status != http.StatusOK || etag != etag1 || ver != ver1 || !bytes.Equal(plan, plan1) {
		t.Errorf("after the unchanged replan: status %d tag %s version %q, same bytes %v; want %s, %q and true", status, etag, ver, bytes.Equal(plan, plan1), etag1, ver1)
	}
	if status, _, _, _ := postConditional(t, srv.URL, body, etag1); status != http.StatusNotModified {
		t.Errorf("revalidation after the unchanged replan: status %d, want 304", status)
	}
}

// TestConcurrentDriftReportsOneSpec: reports for one spec arriving together
// may re-solve the same entry at once, each for its own view. Whichever
// swap lands last, no re-solve fails and the plan served still verifies.
// Run under -race: the entry's source is read and marked by every report.
func TestConcurrentDriftReportsOneSpec(t *testing.T) {
	s := New(Config{})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	spec := testCluster()
	body := requestBody(t, testGraph(t), spec, RequestOptions{})
	if status, _, raw := post(t, srv.URL, body); status != http.StatusOK {
		t.Fatalf("fill: status %d: %s", status, raw)
	}
	reports := [][]byte{driftReport(t, spec), intraDriftReport(t, spec)}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(report []byte) {
			defer wg.Done()
			resp, err := http.Post(srv.URL+"/v1/telemetry", "application/json", bytes.NewReader(report))
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("report: status %d", resp.StatusCode)
			}
		}(reports[i%len(reports)])
	}
	wg.Wait()
	if ts := s.Stats().Telemetry; ts.ReplanErrors != 0 || ts.Replans == 0 {
		t.Errorf("replans %d, replan_errors %d; want some and 0", ts.Replans, ts.ReplanErrors)
	}
	_, _, _, plan := postConditional(t, srv.URL, body, "")
	p, err := hap.ReadProgramBinary(bytes.NewReader(plan), testGraph(t))
	if err != nil {
		t.Fatalf("served plan does not decode: %v", err)
	}
	if err := hap.Verify(p, spec.M(), 7); err != nil {
		t.Errorf("served plan fails verification: %v", err)
	}
}
