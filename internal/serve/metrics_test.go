package serve

import (
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"hap/internal/fleet"
)

// TestHistogramBuckets drives the histogram directly: observations land in
// the right bucket, the exposition is cumulative, and sum/count agree.
func TestHistogramBuckets(t *testing.T) {
	h := newHistogram()
	h.observe(2 * time.Millisecond)   // → le="0.0025"
	h.observe(2 * time.Millisecond)   // same bucket
	h.observe(700 * time.Millisecond) // → le="1"
	h.observe(5 * time.Minute)        // → +Inf overflow

	// Cumulative counts: everything at or under 1s is 3, +Inf is 4.
	cum := uint64(0)
	for i, bound := range latencyBuckets {
		cum += h.counts[i].Load()
		if bound == 1 && cum != 3 {
			t.Errorf("cumulative count at le=1 is %d, want 3", cum)
		}
	}
	if cum+h.counts[len(latencyBuckets)].Load() != 4 {
		t.Error("+Inf bucket does not cover every observation")
	}
	wantSum := (2*time.Millisecond)*2 + 700*time.Millisecond + 5*time.Minute
	if got := h.sumNs.Load(); got != int64(wantSum) {
		t.Errorf("sum = %dns, want %dns", got, wantSum)
	}
}

// TestHistogramConcurrentObserve is meaningful under -race: the histogram
// must take concurrent observations without locks or lost counts.
func TestHistogramConcurrentObserve(t *testing.T) {
	h := newHistogram()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				h.observe(time.Millisecond)
			}
		}()
	}
	wg.Wait()
	total := uint64(0)
	for _, n := range h.snapshot().counts {
		total += n
	}
	if total != 8000 {
		t.Errorf("total = %d, want 8000 (lost observations)", total)
	}
}

// TestMetricsExposesLatencyHistograms scrapes /metrics after real requests
// and checks the hap_serve_request_seconds series: histogram TYPE line,
// per-endpoint buckets, +Inf covering the request count, sum and count.
func TestMetricsExposesLatencyHistograms(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	body := requestBody(t, testGraph(t), testCluster(), RequestOptions{})
	for i := 0; i < 2; i++ { // one miss, one hit — both observed
		if status, _, _, b := postV1(t, srv.URL, body); status != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, status, b)
		}
	}

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)

	for _, want := range []string{
		"# TYPE hap_serve_request_seconds histogram",
		`hap_serve_request_seconds_bucket{endpoint="v1",le="+Inf"} 2`,
		`hap_serve_request_seconds_count{endpoint="v1"} 2`,
		`hap_serve_request_seconds_sum{endpoint="v1"}`,
		`hap_serve_request_seconds_bucket{endpoint="v1",le="0.001"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// Standalone daemon: no fleet series.
	if strings.Contains(text, "hap_serve_fleet_") {
		t.Error("standalone /metrics exposes fleet series")
	}
}

// TestMetricsExposesFleetSeries checks the fleet block appears when a fleet
// is configured.
func TestMetricsExposesFleetSeries(t *testing.T) {
	fl, err := fleet.New(fleet.Config{Self: "http://self:1", Peers: []string{"http://peer:1"}})
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Fleet: fl})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	text := string(raw)
	for _, want := range []string{
		"hap_serve_fleet_peers 2",
		"hap_serve_fleet_proxied_total 0",
		"hap_serve_fleet_replicated_in_total 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestMetricsSeriesNames pins the /metrics vocabulary of a fleet node: every
// series, with its type, in exposition order. Configuration is not echoed as
// a series (the protocol version is on /healthz), so nothing here restates a
// flag. A series is added or removed in this list on purpose.
func TestMetricsSeriesNames(t *testing.T) {
	fl, err := fleet.New(fleet.Config{Self: "http://self:1", Peers: []string{"http://peer:1"}})
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Fleet: fl})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	var got []string
	for _, line := range strings.Split(string(raw), "\n") {
		if typ, ok := strings.CutPrefix(line, "# TYPE "); ok {
			got = append(got, typ)
		}
	}
	want := []string{
		"hap_serve_request_seconds histogram",
		"hap_serve_synth_phase_seconds summary",
		"hap_serve_slow_requests_total counter",
		"hap_serve_cache_hits_total counter",
		"hap_serve_cache_misses_total counter",
		"hap_serve_syntheses_total counter",
		"hap_serve_synth_incremental_total counter",
		"hap_serve_flight_shared_total counter",
		"hap_serve_admission_shed_total counter",
		"hap_serve_inflight_synth gauge",
		"hap_serve_errors_total counter",
		"hap_serve_cache_evictions_total counter",
		"hap_serve_cache_entries gauge",
		"hap_serve_cache_bytes gauge",
		"hap_serve_cache_restored gauge",
		"hap_serve_telemetry_reports_total counter",
		"hap_serve_telemetry_rejects_total counter",
		"hap_serve_replans_total counter",
		"hap_serve_replans_unchanged_total counter",
		"hap_serve_replan_errors_total counter",
		"hap_serve_cluster_drift gauge",
		"hap_serve_fleet_peers gauge",
		"hap_serve_fleet_peers_down gauge",
		"hap_serve_fleet_membership_reloads_total counter",
		"hap_serve_fleet_proxied_total counter",
		"hap_serve_fleet_proxy_errors_total counter",
		"hap_serve_fleet_local_fallbacks_total counter",
		"hap_serve_fleet_forwarded_served_total counter",
		"hap_serve_fleet_replicated_out_total counter",
		"hap_serve_fleet_replicate_errors_total counter",
		"hap_serve_fleet_replicated_in_total counter",
		"hap_serve_fleet_warmup_entries_total counter",
	}
	if !slices.Equal(got, want) {
		t.Errorf("/metrics series:\n got %q\nwant %q", got, want)
	}
}
