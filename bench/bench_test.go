package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestQuantile(t *testing.T) {
	cases := []struct {
		xs   []float64
		q    float64
		want float64
	}{
		{[]float64{4, 1, 3, 2}, 0.5, 2.5},    // between the 2nd and 3rd
		{[]float64{1, 2, 3, 4}, 0.9, 3.7},    // position 2.7
		{[]float64{1, 2, 3, 4}, 0, 1},        // minimum
		{[]float64{1, 2, 3, 4}, 1, 4},        // maximum
		{[]float64{7}, 0.9, 7},               // one sample
		{[]float64{10, 20, 30}, 0.25, 15},    // position 0.5
		{[]float64{5, 5, 5, 50}, 0.5, 5},     // an outlier leaves the median
		{[]float64{1, 2, 3, 4, 5}, 0.9, 4.6}, // position 3.6
	}
	for _, c := range cases {
		if got := quantile(c.xs, c.q); !near(got, c.want) {
			t.Errorf("quantile(%v, %v) = %v, want %v", c.xs, c.q, got, c.want)
		}
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of nothing must be NaN")
	}
}

// The expected values are what Python's statistics.quantiles(xs, n=4) returns.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{40, 10, 20}, 10, 20, 40},
		{[]float64{1, 3}, 0.5, 2, 3.5},
		{[]float64{2, 4, 4, 5, 7, 9, 11}, 4, 5, 9},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if got := iqrShare([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 1) {
		t.Errorf("iqrShare = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestGeomean(t *testing.T) {
	if got := geomean([]float64{1, 100}); !near(got, 10) {
		t.Errorf("geomean(1, 100) = %v, want 10", got)
	}
	if got := geomean([]float64{2, 4, 8}); !near(got, 4) {
		t.Errorf("geomean(2, 4, 8) = %v, want 4", got)
	}
	if got := geomean([]float64{3}); !near(got, 3) {
		t.Errorf("geomean(3) = %v, want 3", got)
	}
	for _, bad := range [][]float64{nil, {1, 0}, {1, -2}} {
		if !math.IsNaN(geomean(bad)) {
			t.Errorf("geomean(%v) must be NaN", bad)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	u := time.Microsecond
	spans := []span{
		{Name: "root", Parent: -1, Start: 0, End: 100 * u},
		{Name: "a", Parent: 0, Start: 10 * u, End: 30 * u},
		{Name: "b overlaps a", Parent: 0, Start: 20 * u, End: 50 * u},
		{Name: "c runs past root", Parent: 0, Start: 90 * u, End: 120 * u},
		{Name: "a's child", Parent: 1, Start: 12 * u, End: 20 * u},
		{Name: "second root", Parent: -1, Start: 200 * u, End: 205 * u},
	}
	// root: children cover 10–50 and 90–100, so 50 of 100 are its own.
	want := []time.Duration{50 * u, 12 * u, 30 * u, 30 * u, 8 * u, 5 * u}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %q = %v, want %v", spans[i].Name, got[i], want[i])
		}
	}
}

// contract is BENCHMARK.json as the smoke test reads it.
type contract struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// TestSmoke runs every workload untraced and traced on one tiny input and one
// round: it keeps the benchmark compiling and its checks live in tier-1, and
// holds what a run prints to what BENCHMARK.json promises.
func TestSmoke(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bm contract
	if err := json.Unmarshal(data, &bm); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if len(bm.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(bm.Workloads), len(workloads))
	}
	out := t.TempDir()
	for i, w := range workloads {
		if bm.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q in BENCHMARK.json and %q in the benchmark", i, bm.Workloads[i].Name, w.name)
		}
		for _, trace := range []bool{false, true} {
			res, err := runWorkload(w, config{seed: 1, seconds: 1, trace: trace, smoke: true, outDir: out})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.name, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := bm.EndToEnd
			if trace {
				want = bm.PerLayer
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s of BENCHMARK.json was not reported", w.name, trace, m.Name)
				} else if got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s has unit %q, BENCHMARK.json says %q", w.name, trace, m.Name, got.Unit, m.Unit)
				} else if math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
					t.Errorf("%s trace=%v: metric %s = %v", w.name, trace, m.Name, got.Value)
				}
			}
			if len(res.Metrics) != len(want) {
				var extra []string
				for name := range res.Metrics {
					extra = append(extra, name)
				}
				sort.Strings(extra)
				t.Errorf("%s trace=%v: %d metrics reported, BENCHMARK.json lists %d; reported: %v", w.name, trace, len(res.Metrics), len(want), extra)
			}
		}
		checkTraceFile(t, filepath.Join(out, "trace-"+w.name+".json"))
	}
}

// checkTraceFile holds the span file to its invariant: in every span tree,
// the self times of all spans sum to the root span's duration — the child
// self-times plus the root's own residual account for the whole call.
func checkTraceFile(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []struct {
			Dur  float64 `json:"dur"`
			Args struct {
				Span   int     `json:"span"`
				Parent int     `json:"parent"`
				SelfUS float64 `json:"self_us"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(file.TraceEvents) == 0 {
		t.Fatalf("%s holds no spans", path)
	}
	rootOf := make([]int, len(file.TraceEvents))
	selfSum := map[int]float64{}
	for i, ev := range file.TraceEvents {
		if ev.Args.Span != i {
			t.Fatalf("%s: event %d carries span id %d", path, i, ev.Args.Span)
		}
		rootOf[i] = i
		if ev.Args.Parent >= 0 {
			rootOf[i] = rootOf[ev.Args.Parent] // parents are recorded first
		}
		selfSum[rootOf[i]] += ev.Args.SelfUS
	}
	for root, sum := range selfSum {
		if dur := file.TraceEvents[root].Dur; math.Abs(sum-dur) > 1e-6*math.Max(1, dur) {
			t.Errorf("%s: self times under root span %d sum to %vµs, the root lasted %vµs", path, root, sum, dur)
		}
	}
}
