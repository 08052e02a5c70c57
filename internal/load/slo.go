// SLO assertions over a loadgen report. The grammar is a comma-separated
// list of comparisons:
//
//	assertion := scalar op value | class '.' metric op value
//	scalar    := errors | shed | canceled | proxied | requests
//	           | hit_ratio | throughput
//	metric    := p50 | p90 | p99 | p999 | mean | max | count
//	op        := < | <= | > | >= | = | == | !=
//	value     := Go duration (latency metrics: "5ms", "1.5s") | number
//
// A threshold is finite, and a latency threshold is not negative: NaN
// compares false against everything (so errors!=NaN would pass whatever the
// count), Inf makes a bound vacuous, and no latency is below zero.
//
// Examples:
//
//	warm.p99<5ms,errors=0
//	warm.p99<5ms,hit_ratio>=0.8,shed>0
//
// hap-loadgen evaluates -slo after a run and exits non-zero on violation;
// CI's load job passes each profile's gate that way.

package load

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

var latencyMetrics = map[string]bool{
	"p50": true, "p90": true, "p99": true, "p999": true, "mean": true, "max": true,
}

var classMetrics = map[string]bool{
	"p50": true, "p90": true, "p99": true, "p999": true, "mean": true, "max": true, "count": true,
}

// Assertion is one parsed SLO comparison.
type Assertion struct {
	Raw    string  // the source text, for reporting
	Class  string  // "" for report scalars
	Metric string  // metric or scalar name
	Op     string  // <, <=, >, >=, =, !=
	Value  float64 // threshold; milliseconds for latency metrics
}

// SLO is a parsed set of assertions.
type SLO struct {
	Assertions []Assertion
}

// ParseSLO parses a comma-separated assertion list. An empty string parses
// to an empty (always-passing) SLO.
func ParseSLO(s string) (*SLO, error) {
	slo := &SLO{}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		a, err := parseAssertion(part)
		if err != nil {
			return nil, err
		}
		slo.Assertions = append(slo.Assertions, a)
	}
	return slo, nil
}

func parseAssertion(s string) (Assertion, error) {
	// Longest operators first so "<=" is not split as "<" + "=".
	opAt := -1
	op := ""
	for _, cand := range []string{"<=", ">=", "==", "!=", "<", ">", "="} {
		if i := strings.Index(s, cand); i >= 0 {
			opAt, op = i, cand
			break
		}
	}
	if opAt < 0 {
		return Assertion{}, fmt.Errorf("load: SLO assertion %q has no comparison operator", s)
	}
	lhs := strings.TrimSpace(s[:opAt])
	rhs := strings.TrimSpace(s[opAt+len(op):])
	if op == "==" {
		op = "="
	}
	a := Assertion{Raw: s, Op: op}
	if dot := strings.IndexByte(lhs, '.'); dot >= 0 {
		a.Class, a.Metric = lhs[:dot], lhs[dot+1:]
		if a.Class == "" || !classMetrics[a.Metric] {
			return Assertion{}, fmt.Errorf("load: SLO assertion %q: unknown class metric %q", s, a.Metric)
		}
	} else {
		a.Metric = lhs
		if _, ok := (&Report{}).scalar(a.Metric); !ok {
			return Assertion{}, fmt.Errorf("load: SLO assertion %q: unknown scalar %q", s, a.Metric)
		}
	}
	if a.Class != "" && latencyMetrics[a.Metric] {
		d, err := time.ParseDuration(rhs)
		if err != nil {
			return Assertion{}, fmt.Errorf("load: SLO assertion %q: latency threshold must be a duration (e.g. 5ms): %v", s, err)
		}
		if d < 0 {
			return Assertion{}, fmt.Errorf("load: SLO assertion %q: latency threshold %s is negative", s, rhs)
		}
		a.Value = float64(d.Nanoseconds()) / 1e6
	} else {
		v, err := strconv.ParseFloat(rhs, 64)
		if err != nil {
			return Assertion{}, fmt.Errorf("load: SLO assertion %q: bad threshold %q", s, rhs)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return Assertion{}, fmt.Errorf("load: SLO assertion %q: threshold %q is not finite", s, rhs)
		}
		a.Value = v
	}
	return a, nil
}

// CheckResult is one assertion's evaluation against a report.
type CheckResult struct {
	Assertion Assertion
	Value     float64 // measured value (ms for latency metrics)
	Pass      bool
	Detail    string // human-readable verdict line
}

// Check evaluates every assertion. ok reports whether all passed; an
// assertion whose metric is missing from the report (e.g. a latency
// quantile of a class that saw no traffic) fails rather than silently
// passing.
func (s *SLO) Check(r *Report) (results []CheckResult, ok bool) {
	ok = true
	for _, a := range s.Assertions {
		var v float64
		var found bool
		if a.Class == "" {
			v, found = r.scalar(a.Metric)
		} else {
			v, found = r.classMetric(a.Class, a.Metric)
		}
		res := CheckResult{Assertion: a, Value: v}
		if !found {
			res.Pass = false
			res.Detail = fmt.Sprintf("FAIL %s: no samples for class %q", a.Raw, a.Class)
		} else {
			res.Pass = compare(v, a.Op, a.Value)
			verdict := "ok"
			if !res.Pass {
				verdict = "FAIL"
			}
			unit := ""
			if a.Class != "" && latencyMetrics[a.Metric] {
				unit = "ms"
			}
			res.Detail = fmt.Sprintf("%s %s: measured %.4g%s", verdict, a.Raw, v, unit)
		}
		if !res.Pass {
			ok = false
		}
		results = append(results, res)
	}
	return results, ok
}

func compare(v float64, op string, threshold float64) bool {
	switch op {
	case "<":
		return v < threshold
	case "<=":
		return v <= threshold
	case ">":
		return v > threshold
	case ">=":
		return v >= threshold
	case "=":
		return v == threshold
	case "!=":
		return v != threshold
	}
	return false
}
