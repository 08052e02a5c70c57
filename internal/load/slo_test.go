package load

import (
	"math"
	"strings"
	"testing"
)

func testReport() *Report {
	return &Report{
		Requests:   1000,
		Throughput: 200,
		PlanWarm:   900,
		PlanMiss:   100,
		HitRatio:   0.9,
		Shed:       5,
		Errors:     0,
		Classes: map[string]ClassStats{
			"all":  {Count: 995, P50Ms: 0.8, P99Ms: 4.2, MaxMs: 80},
			"warm": {Count: 900, P50Ms: 0.5, P99Ms: 2.1, MaxMs: 3},
			"miss": {Count: 95, P50Ms: 40, P99Ms: 75, MaxMs: 80},
		},
	}
}

// TestSLOParseAndCheck: the grammar parses, latency thresholds are Go
// durations, and pass/fail verdicts land correctly.
func TestSLOParseAndCheck(t *testing.T) {
	slo, err := ParseSLO("warm.p99<5ms, errors=0, hit_ratio>=0.8, shed>0, miss.p99 <= 100ms")
	if err != nil {
		t.Fatal(err)
	}
	if len(slo.Assertions) != 5 {
		t.Fatalf("parsed %d assertions, want 5", len(slo.Assertions))
	}
	results, ok := slo.Check(testReport())
	if !ok {
		for _, r := range results {
			if !r.Pass {
				t.Errorf("unexpected failure: %s", r.Detail)
			}
		}
		t.Fatal("all assertions should pass")
	}

	// Flip each threshold and confirm the right one fails.
	slo, err = ParseSLO("warm.p99<1ms,errors=0")
	if err != nil {
		t.Fatal(err)
	}
	results, ok = slo.Check(testReport())
	if ok {
		t.Fatal("warm.p99<1ms must fail against p99 = 2.1ms")
	}
	if results[0].Pass || !results[1].Pass {
		t.Errorf("wrong assertion failed: %+v", results)
	}
	if !strings.Contains(results[0].Detail, "FAIL") {
		t.Errorf("failing detail %q lacks FAIL marker", results[0].Detail)
	}
}

// TestSLOMissingClassFails: asserting a latency quantile of a class that
// saw no traffic is a failure, not a silent pass — except count, which is
// legitimately zero.
func TestSLOMissingClassFails(t *testing.T) {
	slo, err := ParseSLO("proxied.p99<5ms")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := slo.Check(testReport()); ok {
		t.Error("latency assertion on an absent class passed silently")
	}
	slo, err = ParseSLO("proxied.count=0")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := slo.Check(testReport()); !ok {
		t.Error("count=0 on an absent class must pass")
	}
}

// TestSLOParseErrors: the reject cases.
func TestSLOParseErrors(t *testing.T) {
	for _, bad := range []string{
		"warm.p99",            // no operator
		"warm.p98<5ms",        // unknown metric
		"bogus_scalar<1",      // unknown scalar
		"warm.p99<5",          // latency threshold must be a duration
		"errors=zero",         // non-numeric threshold
		"warm.p99<5ms,errors", // one bad entry poisons the list
	} {
		if _, err := ParseSLO(bad); err == nil {
			t.Errorf("ParseSLO(%q) accepted", bad)
		}
	}
	// Empty and whitespace-only parse to the always-pass SLO.
	for _, empty := range []string{"", " , "} {
		slo, err := ParseSLO(empty)
		if err != nil {
			t.Errorf("ParseSLO(%q): %v", empty, err)
		} else if len(slo.Assertions) != 0 {
			t.Errorf("ParseSLO(%q) produced assertions", empty)
		}
	}
	// == normalizes to =.
	slo, err := ParseSLO("errors==0")
	if err != nil {
		t.Fatal(err)
	}
	if slo.Assertions[0].Op != "=" {
		t.Errorf("op = %q, want =", slo.Assertions[0].Op)
	}
}

// TestSLORejectsNonFiniteThresholds: a threshold no measurement can meet or
// miss is a parse error. NaN compares false against everything, so
// errors!=NaN passed whatever the error count; Inf makes its bound vacuous;
// a negative latency threshold can never pass.
func TestSLORejectsNonFiniteThresholds(t *testing.T) {
	for _, tc := range []struct {
		slo    string
		accept bool
	}{
		{"errors!=NaN", false},
		{"errors=nan", false},
		{"errors<=Inf", false},
		{"shed<+Inf", false},
		{"hit_ratio>-Inf", false},
		{"throughput>=infinity", false},
		{"warm.count<Inf", false},
		{"warm.p99<-5ms", false},
		{"miss.max<=-1s", false},
		{"warm.p99<0ms", true},    // zero is a threshold, if a strict one
		{"warm.count>-1", true},   // only latencies are non-negative by kind
		{"hit_ratio>=1e-9", true}, // tiny but finite
	} {
		_, err := ParseSLO(tc.slo)
		if tc.accept && err != nil {
			t.Errorf("ParseSLO(%q): %v", tc.slo, err)
		}
		if !tc.accept && err == nil {
			t.Errorf("ParseSLO(%q) accepted a threshold no measurement can meet or miss", tc.slo)
		}
	}
}

// FuzzParseSLO: arbitrary -slo text never panics the parser, and every
// assertion it accepts has a finite threshold (non-negative for a latency)
// and re-parses from its Raw text to itself — what the report prints is what
// was checked. The committed corpus holds errors!=NaN, which once parsed and
// then passed whatever the error count.
func FuzzParseSLO(f *testing.F) {
	for _, s := range []string{
		"warm.p99<5ms, errors=0, hit_ratio>=0.8, shed>0, miss.p99 <= 100ms",
		"errors==0,proxied.count>0,warm.p99<1s",
		"warm.p99<-5ms",
		"errors<=Inf",
		"warm.p99<5,errors=zero",
		"",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		slo, err := ParseSLO(s)
		if err != nil {
			return
		}
		for _, a := range slo.Assertions {
			if math.IsNaN(a.Value) || math.IsInf(a.Value, 0) {
				t.Fatalf("%q: accepted assertion %q has threshold %v", s, a.Raw, a.Value)
			}
			if a.Class != "" && latencyMetrics[a.Metric] && a.Value < 0 {
				t.Fatalf("%q: accepted assertion %q has negative latency threshold %v", s, a.Raw, a.Value)
			}
			again, err := ParseSLO(a.Raw)
			if err != nil {
				t.Fatalf("%q: accepted assertion %q does not re-parse: %v", s, a.Raw, err)
			}
			if len(again.Assertions) != 1 || again.Assertions[0] != a {
				t.Fatalf("%q: assertion %+v re-parses from its Raw text to %+v", s, a, again.Assertions)
			}
		}
	})
}
