// The loadgen report: per-class latency stats, cache-hit ratio, and the
// error taxonomy, rendered as text for humans and as JSON for the artifact
// CI archives.

package load

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Result classification outcomes. "warm" and "miss" come from the daemon's
// X-HAP-Cache header (so proxied fleet answers report the owning node's
// verdict); "proxied" additionally marks answers relayed by another fleet
// node (X-HAP-Fleet-Node present); "shed" is a 429 from admission control.
const (
	OutcomeWarm     = "warm"
	OutcomeMiss     = "miss"
	OutcomeShed     = "shed"
	OutcomeCanceled = "canceled"
	OutcomeError    = "error"
)

// Result is one executed request, as recorded into the report.
type Result struct {
	Class   Class
	Outcome string // OutcomeWarm, OutcomeMiss, OutcomeShed, OutcomeCanceled, OutcomeError
	Proxied bool   // answered by a fleet peer on the client's behalf
	Code    string // error taxonomy key when Outcome == OutcomeError
	Latency time.Duration
}

// ClassStats is one report class's latency summary, in milliseconds.
type ClassStats struct {
	Count  uint64  `json:"count"`
	P50Ms  float64 `json:"p50_ms"`
	P90Ms  float64 `json:"p90_ms"`
	P99Ms  float64 `json:"p99_ms"`
	P999Ms float64 `json:"p999_ms"`
	MeanMs float64 `json:"mean_ms"`
	MaxMs  float64 `json:"max_ms"`
}

// Report is a completed run's summary. The JSON form is the machine
// artifact CI archives and gates on.
type Report struct {
	Mode        string  `json:"mode"`   // "closed" or "open"
	Target      string  `json:"target"` // daemon base URL
	Seed        int64   `json:"seed"`
	Rate        float64 `json:"rate_rps,omitempty"`    // open loop target rate
	Concurrency int     `json:"concurrency,omitempty"` // closed loop workers
	DurationSec float64 `json:"duration_sec"`

	Requests   uint64  `json:"requests"`       // requests issued, all classes
	Throughput float64 `json:"throughput_rps"` // Requests / DurationSec

	// PlanWarm/PlanMiss count answered plan requests by cache outcome;
	// HitRatio = PlanWarm / (PlanWarm + PlanMiss).
	PlanWarm uint64  `json:"plan_warm"`
	PlanMiss uint64  `json:"plan_miss"`
	HitRatio float64 `json:"hit_ratio"`

	// Proxied counts requests answered by a fleet peer; Shed requests shed
	// with 429 by admission control; Canceled client-abandoned requests
	// (the Cancel class doing its job); Errors everything unexpected.
	Proxied  uint64 `json:"proxied"`
	Shed     uint64 `json:"shed"`
	Canceled uint64 `json:"canceled"`
	Errors   uint64 `json:"errors"`

	// ErrorsByCode breaks Errors down: envelope codes (bad_request,
	// synthesis_failed, ...), "http_<status>" for unenveloped statuses, and
	// "transport" for connection-level failures.
	ErrorsByCode map[string]uint64 `json:"errors_by_code,omitempty"`

	// Classes holds latency summaries keyed by class: "all" (every
	// successfully answered plan request), the request classes ("single",
	// "cond", "cancel"), and the outcome classes ("warm",
	// "miss", "proxied", "shed").
	Classes map[string]ClassStats `json:"classes"`
}

// recorder accumulates Results during a run. Safe for concurrent use.
type recorder struct {
	mu           sync.Mutex
	hists        map[string]*Hist
	requests     uint64
	planWarm     uint64
	planMiss     uint64
	proxied      uint64
	shed         uint64
	canceled     uint64
	errors       uint64
	errorsByCode map[string]uint64
}

func newRecorder() *recorder {
	return &recorder{hists: map[string]*Hist{}, errorsByCode: map[string]uint64{}}
}

func (r *recorder) observe(class string, d time.Duration) {
	h := r.hists[class]
	if h == nil {
		h = &Hist{}
		r.hists[class] = h
	}
	h.Observe(d)
}

func (r *recorder) record(res Result) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.requests++
	switch res.Outcome {
	case OutcomeWarm, OutcomeMiss:
		if res.Outcome == OutcomeWarm {
			r.planWarm++
		} else {
			r.planMiss++
		}
		r.observe("all", res.Latency)
		r.observe(res.Class.String(), res.Latency)
		r.observe(res.Outcome, res.Latency)
		if res.Proxied {
			r.proxied++
			r.observe("proxied", res.Latency)
		}
	case OutcomeShed:
		r.shed++
		r.observe(OutcomeShed, res.Latency)
	case OutcomeCanceled:
		r.canceled++
		r.observe(res.Class.String(), res.Latency)
	default:
		r.errors++
		code := res.Code
		if code == "" {
			code = "unknown"
		}
		r.errorsByCode[code]++
	}
}

// report snapshots the recorder into a Report.
func (r *recorder) report(mode, target string, seed int64, rate float64, concurrency int, elapsed time.Duration) *Report {
	r.mu.Lock()
	defer r.mu.Unlock()
	rep := &Report{
		Mode:        mode,
		Target:      target,
		Seed:        seed,
		Rate:        rate,
		Concurrency: concurrency,
		DurationSec: elapsed.Seconds(),
		Requests:    r.requests,
		PlanWarm:    r.planWarm,
		PlanMiss:    r.planMiss,
		Proxied:     r.proxied,
		Shed:        r.shed,
		Canceled:    r.canceled,
		Errors:      r.errors,
		Classes:     map[string]ClassStats{},
	}
	if elapsed > 0 {
		rep.Throughput = float64(r.requests) / elapsed.Seconds()
	}
	if total := r.planWarm + r.planMiss; total > 0 {
		rep.HitRatio = float64(r.planWarm) / float64(total)
	}
	if len(r.errorsByCode) > 0 {
		rep.ErrorsByCode = make(map[string]uint64, len(r.errorsByCode))
		for k, v := range r.errorsByCode {
			rep.ErrorsByCode[k] = v
		}
	}
	ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
	for name, h := range r.hists {
		rep.Classes[name] = ClassStats{
			Count:  h.Count(),
			P50Ms:  ms(h.Quantile(0.50)),
			P90Ms:  ms(h.Quantile(0.90)),
			P99Ms:  ms(h.Quantile(0.99)),
			P999Ms: ms(h.Quantile(0.999)),
			MeanMs: ms(h.Mean()),
			MaxMs:  ms(h.Max()),
		}
	}
	return rep
}

// scalar resolves a report-level SLO scalar by name.
func (r *Report) scalar(name string) (float64, bool) {
	switch name {
	case "errors":
		return float64(r.Errors), true
	case "shed":
		return float64(r.Shed), true
	case "canceled":
		return float64(r.Canceled), true
	case "requests":
		return float64(r.Requests), true
	case "proxied":
		return float64(r.Proxied), true
	case "hit_ratio":
		return r.HitRatio, true
	case "throughput":
		return r.Throughput, true
	}
	return 0, false
}

// classMetric resolves class.metric (milliseconds for the latency metrics).
func (r *Report) classMetric(class, metric string) (float64, bool) {
	cs, ok := r.Classes[class]
	if !ok {
		// A class with no samples has no entry; its count is zero and its
		// latencies undefined. count=0 must be assertable ("shed absent"),
		// latency quantiles must not silently pass.
		if metric == "count" {
			return 0, true
		}
		return 0, false
	}
	switch metric {
	case "count":
		return float64(cs.Count), true
	case "p50":
		return cs.P50Ms, true
	case "p90":
		return cs.P90Ms, true
	case "p99":
		return cs.P99Ms, true
	case "p999":
		return cs.P999Ms, true
	case "mean":
		return cs.MeanMs, true
	case "max":
		return cs.MaxMs, true
	}
	return 0, false
}

// Text renders the human-readable report.
func (r *Report) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "hap-loadgen: mode=%s target=%s seed=%d", r.Mode, r.Target, r.Seed)
	if r.Mode == "open" {
		fmt.Fprintf(&b, " rate=%.0f/s", r.Rate)
	} else {
		fmt.Fprintf(&b, " concurrency=%d", r.Concurrency)
	}
	fmt.Fprintf(&b, "\n%d requests in %.2fs (%.1f req/s)\n", r.Requests, r.DurationSec, r.Throughput)
	fmt.Fprintf(&b, "plans: warm %d, miss %d (hit ratio %.3f)\n", r.PlanWarm, r.PlanMiss, r.HitRatio)
	fmt.Fprintf(&b, "proxied %d, shed %d, canceled %d, errors %d\n", r.Proxied, r.Shed, r.Canceled, r.Errors)
	if len(r.ErrorsByCode) > 0 {
		codes := make([]string, 0, len(r.ErrorsByCode))
		for c := range r.ErrorsByCode {
			codes = append(codes, c)
		}
		sort.Strings(codes)
		for _, c := range codes {
			fmt.Fprintf(&b, "  error %s: %d\n", c, r.ErrorsByCode[c])
		}
	}
	fmt.Fprintf(&b, "%-12s %8s %9s %9s %9s %9s %9s\n", "class", "count", "p50", "p90", "p99", "p999", "max")
	names := make([]string, 0, len(r.Classes))
	for name := range r.Classes {
		names = append(names, name)
	}
	sort.Strings(names)
	// "all" leads; the rest alphabetical.
	for i, name := range names {
		if name == "all" && i != 0 {
			names[0], names[i] = names[i], names[0]
			sort.Strings(names[1:])
			break
		}
	}
	for _, name := range names {
		cs := r.Classes[name]
		fmt.Fprintf(&b, "%-12s %8d %8.2fms %8.2fms %8.2fms %8.2fms %8.2fms\n",
			name, cs.Count, cs.P50Ms, cs.P90Ms, cs.P99Ms, cs.P999Ms, cs.MaxMs)
	}
	return b.String()
}
