// Tests for the telemetry layer: drift verdicts over the wire, the re-solve
// swap discipline (a version bump and a new tag once a re-solved plan passes
// its checks, the old plan and tag untouched when it does not), plan
// versioning through the store, and the metrics exposition of the
// replanning counters.

package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"hap"
	"hap/internal/cluster"
	"hap/internal/dist"
	"hap/internal/models"
	"hap/internal/planwire"
	"hap/internal/telemetry"
)

// telemetryBody assembles a POST /v1/telemetry body for spec.
func telemetryBody(t testing.TB, spec *cluster.Cluster, req TelemetryRequest) []byte {
	t.Helper()
	var cb bytes.Buffer
	if err := spec.Encode(&cb); err != nil {
		t.Fatal(err)
	}
	req.Cluster = cb.Bytes()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// postTelemetry POSTs a telemetry report and decodes the verdict.
func postTelemetry(t *testing.T, url string, body []byte) (int, TelemetryResponse, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/telemetry", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var tr TelemetryResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, &tr); err != nil {
			t.Fatalf("decode telemetry response: %v (%s)", err, raw)
		}
	}
	return resp.StatusCode, tr, raw
}

// postConditional POSTs a synthesize request with an optional If-None-Match
// tag and returns the response status, ETag, version header, and body.
func postConditional(t *testing.T, url string, body []byte, ifNoneMatch string) (int, string, string, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/v1/synthesize", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if ifNoneMatch != "" {
		req.Header.Set("If-None-Match", ifNoneMatch)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("ETag"), resp.Header.Get(PlanVersionHeader), raw
}

// achievedTFLOPS is device i's spec achieved throughput in TFLOPS — the
// number a probe agent would report when the device performs exactly to spec.
func achievedTFLOPS(c *cluster.Cluster, i int) float64 {
	return c.Devices[i].Flops() / 1e12
}

// TestTelemetryDriftVerdict exercises the ingest endpoint's verdicts: a
// to-spec report is not drifted, a large throughput drop is, and a sample
// naming an unknown device rejects the batch with a structured 400.
func TestTelemetryDriftVerdict(t *testing.T) {
	s := New(Config{})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	c := testCluster()

	status, tr, raw := postTelemetry(t, srv.URL, telemetryBody(t, c, TelemetryRequest{
		Devices: []telemetry.DeviceSample{{Device: 0, TFLOPS: achievedTFLOPS(c, 0)}},
	}))
	if status != http.StatusOK {
		t.Fatalf("to-spec report: status %d: %s", status, raw)
	}
	if tr.Drifted || tr.Distance > 1e-9 {
		t.Errorf("to-spec report: drifted=%v distance=%v, want no drift", tr.Drifted, tr.Distance)
	}

	// Halve device 0's throughput. The EWMA blends the outlier against the
	// to-spec baseline: one sample moves the estimate alpha × 50% = 15% —
	// already past the 10% threshold, but far from the raw 50%. No cached
	// plans exist, so no replans start.
	status, tr, raw = postTelemetry(t, srv.URL, telemetryBody(t, c, TelemetryRequest{
		Devices: []telemetry.DeviceSample{{Device: 0, TFLOPS: achievedTFLOPS(c, 0) * 0.5}},
	}))
	if status != http.StatusOK {
		t.Fatalf("drifted report: status %d: %s", status, raw)
	}
	if !tr.Drifted {
		t.Errorf("halved throughput not flagged as drifted (distance %v)", tr.Distance)
	}
	if tr.Distance < 0.14 || tr.Distance > 0.16 {
		t.Errorf("distance = %v, want ~0.15 (alpha-smoothed half-throughput sample)", tr.Distance)
	}
	if tr.ReplansStarted != 0 {
		t.Errorf("replans started with an empty cache: %d", tr.ReplansStarted)
	}

	// Unknown device: the whole batch must reject, loudly.
	status, _, raw = postTelemetry(t, srv.URL, telemetryBody(t, c, TelemetryRequest{
		Devices: []telemetry.DeviceSample{{Device: 99, TFLOPS: 10}},
	}))
	if status != http.StatusBadRequest {
		t.Fatalf("unknown device: status %d, want 400: %s", status, raw)
	}
	if !strings.Contains(string(raw), CodeBadRequest) {
		t.Errorf("unknown device: body %s lacks the %s envelope", raw, CodeBadRequest)
	}

	st := s.Stats()
	if st.Telemetry == nil {
		t.Fatal("stats lack the telemetry slice")
	}
	if st.Telemetry.Reports != 2 || st.Telemetry.Rejects != 1 {
		t.Errorf("telemetry stats reports=%d rejects=%d, want 2/1", st.Telemetry.Reports, st.Telemetry.Rejects)
	}
}

// TestTelemetryBackgroundReplan is the acceptance test of drift replanning:
// before any drift the plan revalidates with 304; a report past the
// threshold re-solves the affected cache entry within the request, so by the
// time the verdict arrives the version has bumped, the tag has changed, a
// stale conditional fetch gets the new body, and a fresh conditional fetch
// 304s against the new tag.
func TestTelemetryBackgroundReplan(t *testing.T) {
	s := New(Config{})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	c := testCluster()
	body := requestBody(t, testGraph(t), c, RequestOptions{})

	status, etag1, ver1, plan1 := postConditional(t, srv.URL, body, "")
	if status != http.StatusOK {
		t.Fatalf("synthesis: status %d: %s", status, plan1)
	}
	if etag1 == "" || ver1 != "1" {
		t.Fatalf("synthesis response: ETag %q, version %q, want a tag and version 1", etag1, ver1)
	}
	// Warm-client revalidation before any drift: 304, no body.
	status, etag, _, respBody := postConditional(t, srv.URL, body, etag1)
	if status != http.StatusNotModified || len(respBody) != 0 {
		t.Fatalf("conditional fetch pre-drift: status %d, body %d bytes, want 304 empty", status, len(respBody))
	}
	if etag != etag1 {
		t.Errorf("304 carried ETag %q, want %q", etag, etag1)
	}

	// Degrade the cluster: the cross-machine link drops to half bandwidth and
	// device 0 throttles to half throughput.
	status, tr, raw := postTelemetry(t, srv.URL, driftReport(t, c))
	if status != http.StatusOK {
		t.Fatalf("telemetry: status %d: %s", status, raw)
	}
	if !tr.Drifted || tr.ReplansStarted != 1 {
		t.Fatalf("telemetry verdict drifted=%v replans=%d, want true/1", tr.Drifted, tr.ReplansStarted)
	}

	// The swap happened inside the report: version 2, a new tag.
	status, etag2, ver2, plan2 := postConditional(t, srv.URL, body, "")
	if status != http.StatusOK || ver2 != "2" {
		t.Fatalf("post-drift fetch: status %d version %q, want 200 and 2", status, ver2)
	}
	if etag2 == etag1 || bytes.Equal(plan2, plan1) {
		t.Fatalf("replan swapped but content did not change (tag %q → %q)", etag1, etag2)
	}
	// The replanned plan verifies against the drifted device count.
	p, err := hap.ReadProgramBinary(bytes.NewReader(plan2), testGraph(t))
	if err != nil {
		t.Fatalf("replanned plan does not decode: %v", err)
	}
	if err := hap.Verify(p, c.M(), 7); err != nil {
		t.Errorf("replanned plan fails verification: %v", err)
	}

	// A client holding the pre-drift tag now gets the new body...
	status, etag, _, respBody = postConditional(t, srv.URL, body, etag1)
	if status != http.StatusOK || !bytes.Equal(respBody, plan2) {
		t.Fatalf("stale conditional fetch: status %d, got new body=%v, want 200 with the replanned plan", status, bytes.Equal(respBody, plan2))
	}
	if etag != etag2 {
		t.Errorf("stale conditional fetch: ETag %q, want %q", etag, etag2)
	}
	// ...and the new tag 304s.
	if status, _, _, _ := postConditional(t, srv.URL, body, etag2); status != http.StatusNotModified {
		t.Errorf("fresh conditional fetch: status %d, want 304", status)
	}

	st := s.Stats()
	if st.Telemetry.Replans != 1 || st.Telemetry.ReplanErrors != 0 {
		t.Errorf("telemetry stats replans=%d errors=%d, want 1/0", st.Telemetry.Replans, st.Telemetry.ReplanErrors)
	}
	if st.Syntheses != 1 || st.InflightSynth != 0 {
		t.Errorf("syntheses %d, inflight_synth %d; want 1 and 0 (a re-solve searches nothing)", st.Syntheses, st.InflightSynth)
	}

	// The same drift reported again must not replan again: the entry is
	// already planned against the current view.
	status, tr, _ = postTelemetry(t, srv.URL, telemetryBody(t, c, TelemetryRequest{
		Devices: []telemetry.DeviceSample{{Device: 0, TFLOPS: achievedTFLOPS(c, 0) * 0.5}},
	}))
	if status != http.StatusOK || tr.ReplansStarted != 0 {
		t.Errorf("re-reported drift: status %d replans=%d, want 200/0 (idempotent per view)", status, tr.ReplansStarted)
	}
}

// TestTelemetryReplanFailureKeepsOldPlan: a re-solve whose ratio LP fails
// leaves the cached plan, its tag, and its version untouched, and counts a
// replan error.
func TestTelemetryReplanFailureKeepsOldPlan(t *testing.T) {
	defer func(f func(*cluster.Cluster, *dist.Program) ([][]float64, error)) { resolveRatios = f }(resolveRatios)
	resolveRatios = func(*cluster.Cluster, *dist.Program) ([][]float64, error) {
		return nil, fmt.Errorf("lp: infeasible")
	}
	s := New(Config{})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	c := testCluster()
	body := requestBody(t, testGraph(t), c, RequestOptions{})

	status, etag1, ver1, plan1 := postConditional(t, srv.URL, body, "")
	if status != http.StatusOK {
		t.Fatalf("synthesis: status %d", status)
	}
	status, tr, raw := postTelemetry(t, srv.URL, telemetryBody(t, c, TelemetryRequest{
		Devices: []telemetry.DeviceSample{{Device: 0, TFLOPS: achievedTFLOPS(c, 0) * 0.5}},
	}))
	if status != http.StatusOK || tr.ReplansStarted != 1 {
		t.Fatalf("telemetry: status %d replans=%d: %s", status, tr.ReplansStarted, raw)
	}
	status, etag, ver, respBody := postConditional(t, srv.URL, body, "")
	if status != http.StatusOK || !bytes.Equal(respBody, plan1) || etag != etag1 || ver != ver1 {
		t.Errorf("after failed replan: status %d etag %q ver %q, want the untouched original (%q/%q)", status, etag, ver, etag1, ver1)
	}
	if ts := s.Stats().Telemetry; ts.ReplanErrors != 1 || ts.Replans != 0 {
		t.Errorf("after failed replan: replan_errors %d, replans %d; want 1 and 0", ts.ReplanErrors, ts.Replans)
	}
}

// TestTelemetryResolvesCostOnlyOps is the witness that drift replanning
// reaches a model the numeric verifier cannot execute: a 1-layer BERT, whose
// attention has no runtime kernel. Its drifted entry is re-solved and
// swapped to version 2 with no replan error — even though its ratios stay
// where they were, the modelled cost the plan carries moved with the
// cluster.
func TestTelemetryResolvesCostOnlyOps(t *testing.T) {
	s := New(Config{})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	c := testCluster()
	g := models.Training(models.BERT(models.TransformerConfig{Layers: 1, Hidden: 8, FFN: 16, SeqLen: 4, Vocab: 16}, 16))
	body := requestBody(t, g, c, RequestOptions{})
	if status, _, ver, raw := postConditional(t, srv.URL, body, ""); status != http.StatusOK || ver != "1" {
		t.Fatalf("fill: status %d version %q: %s", status, ver, raw)
	}
	if status, tr, raw := postTelemetry(t, srv.URL, driftReport(t, c)); status != http.StatusOK || tr.ReplansStarted != 1 {
		t.Fatalf("drift report: status %d replans=%d: %s", status, tr.ReplansStarted, raw)
	}
	status, _, ver, plan := postConditional(t, srv.URL, body, "")
	if status != http.StatusOK || ver != "2" {
		t.Errorf("after the drift: status %d version %q, want 200 and 2", status, ver)
	}
	if ts := s.Stats().Telemetry; ts.ReplanErrors != 0 || ts.Replans != 1 {
		t.Errorf("replans %d, replan_errors %d; want 1 and 0", ts.Replans, ts.ReplanErrors)
	}
	if _, err := hap.ReadProgramBinary(bytes.NewReader(plan), g); err != nil {
		t.Errorf("re-solved plan does not decode: %v", err)
	}
}

// TestTelemetryDroppedDeviceResolves: a device reported down leaves a live
// view with one device fewer, and the cached program is re-solved over the
// survivors — no search, which for a small graph might find no program at
// all. The swapped plan's ratios have one column per survivor and it
// verifies on that many devices.
func TestTelemetryDroppedDeviceResolves(t *testing.T) {
	s := New(Config{})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	c := testCluster()
	body := requestBody(t, testGraph(t), c, RequestOptions{})
	if status, _, _, raw := postConditional(t, srv.URL, body, ""); status != http.StatusOK {
		t.Fatalf("fill: status %d: %s", status, raw)
	}
	status, tr, raw := postTelemetry(t, srv.URL, telemetryBody(t, c, TelemetryRequest{
		Devices: []telemetry.DeviceSample{{Device: 0, TFLOPS: 0}},
	}))
	if status != http.StatusOK || !tr.Drifted || tr.ReplansStarted != 1 {
		t.Fatalf("device-down report: status %d drifted=%v replans=%d: %s", status, tr.Drifted, tr.ReplansStarted, raw)
	}
	status, _, ver, plan := postConditional(t, srv.URL, body, "")
	if status != http.StatusOK || ver != "2" {
		t.Fatalf("after the drop: status %d version %q, want 200 and 2", status, ver)
	}
	p, err := hap.ReadProgramBinary(bytes.NewReader(plan), testGraph(t))
	if err != nil {
		t.Fatalf("re-solved plan does not decode: %v", err)
	}
	m := c.M() - 1
	for k, row := range p.Ratios {
		if len(row) != m {
			t.Errorf("ratios row %d has %d devices, want the %d survivors", k, len(row), m)
		}
	}
	if err := hap.Verify(p, m, 7); err != nil {
		t.Errorf("re-solved plan fails verification on %d devices: %v", m, err)
	}
}

// TestTelemetryNearZeroThrottle: a device throttled towards 1 % of its
// throughput — reported until the smoothed estimate is within a few percent
// of it — pushes the ratio LP to its most lopsided answer. Every re-solve on
// the way swaps in ratios that still verify.
func TestTelemetryNearZeroThrottle(t *testing.T) {
	s := New(Config{})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	c := testCluster()
	body := requestBody(t, testGraph(t), c, RequestOptions{})
	if status, _, _, raw := postConditional(t, srv.URL, body, ""); status != http.StatusOK {
		t.Fatalf("fill: status %d: %s", status, raw)
	}
	report := telemetryBody(t, c, TelemetryRequest{
		Devices: []telemetry.DeviceSample{{Device: 1, TFLOPS: achievedTFLOPS(c, 1) * 0.01}},
	})
	for i := 0; i < 12; i++ {
		if status, tr, raw := postTelemetry(t, srv.URL, report); status != http.StatusOK || !tr.Drifted {
			t.Fatalf("report %d: status %d drifted=%v: %s", i, status, tr.Drifted, raw)
		}
		status, _, _, plan := postConditional(t, srv.URL, body, "")
		if status != http.StatusOK {
			t.Fatalf("fetch %d: status %d", i, status)
		}
		p, err := hap.ReadProgramBinary(bytes.NewReader(plan), testGraph(t))
		if err != nil {
			t.Fatalf("fetch %d: plan does not decode: %v", i, err)
		}
		if err := hap.Verify(p, c.M(), 7); err != nil {
			t.Fatalf("fetch %d: ratios %v fail verification: %v", i, p.Ratios, err)
		}
	}
	if ts := s.Stats().Telemetry; ts.ReplanErrors != 0 || ts.Replans == 0 {
		t.Errorf("replans %d, replan_errors %d; want some and 0", ts.Replans, ts.ReplanErrors)
	}
}

// FuzzTelemetryReport feeds arbitrary bytes to POST /v1/telemetry on a server
// holding one cached MLP plan for the spec the seeds name. No body may panic
// the handler; every call counts exactly one accepted report or one reject,
// and answers 200 exactly when it is a report; and whatever the report does
// to the entry — nothing, a swap, a failed re-solve — the plan served under
// its key still decodes and carries well-formed ratios.
func FuzzTelemetryReport(f *testing.F) {
	g, spec := testGraph(f), testCluster()
	p, err := planWith(g, spec, hap.Options{})
	if err != nil {
		f.Fatal(err)
	}
	v, err := encodePlan(p)
	if err != nil {
		f.Fatal(err)
	}
	key := cacheKey(g, spec, RequestOptions{})
	// The committed corpus holds a drift past the threshold, a device down,
	// and an unparsable body, which once answered 400 without counting a
	// reject.
	for _, seed := range [][]byte{
		intraDriftReport(f, spec),
		telemetryBody(f, spec, TelemetryRequest{Devices: []telemetry.DeviceSample{{Device: 1, TFLOPS: achievedTFLOPS(spec, 1) * 0.01}}}),
		telemetryBody(f, spec, TelemetryRequest{Devices: []telemetry.DeviceSample{{Device: 99, TFLOPS: 10}}}),
		[]byte(`{"cluster":null}`),
	} {
		f.Add(seed)
	}
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	f.Fuzz(func(t *testing.T, body []byte) {
		s := New(Config{Logger: quiet})
		s.store.Put(key, CachedPlan{Bin: v.Bin, src: newPlanSource(g, spec, RequestOptions{})})
		w := httptest.NewRecorder()
		s.handleTelemetry(w, httptest.NewRequest(http.MethodPost, "/v1/telemetry", bytes.NewReader(body)))
		ts := s.Stats().Telemetry
		if ts.Reports+ts.Rejects != 1 || (w.Code == http.StatusOK) != (ts.Reports == 1) {
			t.Fatalf("status %d counted %d reports and %d rejects, want one of them, the report exactly when 200", w.Code, ts.Reports, ts.Rejects)
		}
		served, ok := s.store.Get(key)
		if !ok {
			t.Fatal("the cached plan is gone")
		}
		sp, err := hap.ReadProgramBinary(bytes.NewReader(served.Bin), g)
		if err != nil {
			t.Fatalf("served plan (version %d) does not decode: %v", served.Version, err)
		}
		if err := planwire.ValidateRatios(sp.Ratios, sp.Program.Graph.NumSegments()); err != nil {
			t.Fatalf("served plan (version %d): %v", served.Version, err)
		}
	})
}

// TestPlanVersioningThroughStore pins the store-level versioning contract:
// first insert is version 1 with a content tag, a same-content refresh keeps
// the tag, a changed-content replacement bumps the version and changes the
// tag, and entries arriving with explicit metadata (replication) keep it.
func TestPlanVersioningThroughStore(t *testing.T) {
	s := newStore(8, 1<<20, nil, 0)
	s.Put("k", CachedPlan{Bin: []byte(`{"a":1}`)})
	v1, _ := s.Get("k")
	if v1.Version != 1 || v1.ETag == "" || v1.ETag != ETagFor([]byte(`{"a":1}`)) {
		t.Fatalf("first insert: version %d etag %q", v1.Version, v1.ETag)
	}
	s.Put("k", CachedPlan{Bin: []byte(`{"a":1}`)})
	v2, _ := s.Get("k")
	if v2.Version != 2 || v2.ETag != v1.ETag {
		t.Errorf("same-content refresh: version %d etag %q, want 2 with the same tag %q", v2.Version, v2.ETag, v1.ETag)
	}
	s.Put("k", CachedPlan{Bin: []byte(`{"a":2}`)})
	v3, _ := s.Get("k")
	if v3.Version != 3 || v3.ETag == v1.ETag {
		t.Errorf("changed-content replacement: version %d etag %q, want 3 with a new tag", v3.Version, v3.ETag)
	}
	// A replicated entry keeps the owner's version; its tag is derived here
	// from the bytes, never taken from the caller.
	s.Put("r", CachedPlan{Bin: []byte(`{"b":1}`), Version: 7, ETag: `"owner-tag"`})
	vr, _ := s.Get("r")
	if want := ETagFor([]byte(`{"b":1}`)); vr.Version != 7 || vr.ETag != want {
		t.Errorf("replicated entry: version %d etag %q, want the owner's 7 with the content tag %q", vr.Version, vr.ETag, want)
	}
}

// TestMetricsExposesTelemetrySeries: the replanning counters exist on a
// scrape before any telemetry arrives (so dashboards can tell "no drift" from
// "not wired"), and a monitored cluster gets its labeled drift series.
func TestMetricsExposesTelemetrySeries(t *testing.T) {
	s := New(Config{})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	scrape := func() string {
		t.Helper()
		resp, err := http.Get(srv.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(raw)
	}
	text := scrape()
	for _, want := range []string{
		"hap_serve_replans_total 0",
		"hap_serve_replan_errors_total 0",
		"hap_serve_telemetry_reports_total 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("fresh /metrics lacks %q", want)
		}
	}

	c := testCluster()
	status, _, raw := postTelemetry(t, srv.URL, telemetryBody(t, c, TelemetryRequest{
		Devices: []telemetry.DeviceSample{{Device: 0, TFLOPS: achievedTFLOPS(c, 0) * 0.8}},
	}))
	if status != http.StatusOK {
		t.Fatalf("telemetry: status %d: %s", status, raw)
	}
	text = scrape()
	if !strings.Contains(text, "hap_serve_telemetry_reports_total 1") {
		t.Errorf("/metrics did not count the report")
	}
	if !strings.Contains(text, fmt.Sprintf("hap_serve_cluster_drift{cluster=%q}", c.Fingerprint())) {
		t.Errorf("/metrics lacks the per-cluster drift gauge for %s", c.Fingerprint())
	}
}
