// Command benchcheck compares `go test -bench -benchmem` output against a
// committed baseline (BENCH_synth.json) and fails when allocs/op regress
// beyond a ratio. CI's bench-smoke step runs it so an allocation regression
// in the synthesis hot path fails the build instead of landing silently;
// absolute ns/op is reported but never gated — CI machines vary too much
// for wall-clock assertions. The baseline may also declare relative gates:
// one benchmark's ns/op bounded by a fraction of another's from the SAME
// run (e.g. incremental VGG19 synthesis under 25% of cold). Ratios between
// same-run measurements cancel out the hardware, so they are safe to gate.
//
// It also gates load-test reports: with -serve-baseline, benchcheck reads a
// committed BENCH_serve.json of named profiles (each an SLO string in the
// hap-loadgen grammar), picks one with -profile, and re-evaluates it against
// the JSON report a loadgen run wrote with -report. The gate text lives in
// the committed baseline, so tightening an SLO is a reviewed diff, and the
// committed gates only use hardware-tolerant assertions (errors, hit ratio,
// shed counts, generous tails) — tight latency numbers stay informational.
//
// Usage:
//
//	go test -run '^$' -bench BenchmarkSynthesizeVGG19 -benchmem -benchtime=1x ./internal/synth > bench.txt
//	go run ./internal/tools/benchcheck -baseline BENCH_synth.json -bench bench.txt
//
//	hap-loadgen -target http://127.0.0.1:8080 -warmup -report report.json
//	go run ./internal/tools/benchcheck -serve-baseline BENCH_serve.json -profile single -report report.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"strconv"
	"strings"

	"hap/internal/load"
)

// Baseline is the BENCH_synth.json schema.
type Baseline struct {
	// Note documents how the baseline was produced.
	Note string `json:"note"`
	// Command reproduces the measurement.
	Command string `json:"command"`
	// Benchmarks maps the benchmark name (GOMAXPROCS suffix stripped) to its
	// committed numbers.
	Benchmarks map[string]Entry `json:"benchmarks"`
	// Relative gates same-run ns/op ratios. Gates whose benchmarks did not
	// both run are skipped (CI may run a subset).
	Relative []RelativeGate `json:"relative,omitempty"`
}

// RelativeGate fails the check when Bench's measured ns/op exceeds MaxRatio
// times Versus's measured ns/op, both taken from the bench output under test.
type RelativeGate struct {
	Bench    string  `json:"bench"`
	Versus   string  `json:"versus"`
	MaxRatio float64 `json:"max_ratio"`
}

// Entry is one benchmark's committed numbers.
type Entry struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// ServeBaseline is the BENCH_serve.json schema: named load profiles, each
// gated by an SLO string in the hap-loadgen grammar.
type ServeBaseline struct {
	Note     string                  `json:"note"`
	Profiles map[string]ServeProfile `json:"profiles"`
}

// ServeProfile is one committed load-test gate.
type ServeProfile struct {
	// Note documents what the profile measures and how CI drives it.
	Note string `json:"note,omitempty"`
	// SLO is the assertion list, e.g. "errors=0, hit_ratio>=0.99, warm.p99<250ms".
	SLO string `json:"slo"`
}

// checkServe evaluates the named profile's SLO against a loadgen JSON report
// and returns false on violation.
func checkServe(baselinePath, profile, reportPath string) bool {
	raw, err := os.ReadFile(baselinePath)
	if err != nil {
		fatal("reading serve baseline: %v", err)
	}
	var base ServeBaseline
	if err := json.Unmarshal(raw, &base); err != nil {
		fatal("parsing %s: %v", baselinePath, err)
	}
	prof, ok := base.Profiles[profile]
	if !ok {
		names := make([]string, 0, len(base.Profiles))
		for n := range base.Profiles {
			names = append(names, n)
		}
		fatal("profile %q not in %s (have: %s)", profile, baselinePath, strings.Join(names, ", "))
	}
	slo, err := load.ParseSLO(prof.SLO)
	if err != nil {
		fatal("profile %q: %v", profile, err)
	}
	raw, err = os.ReadFile(reportPath)
	if err != nil {
		fatal("reading report: %v", err)
	}
	var rep load.Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		fatal("parsing report %s: %v", reportPath, err)
	}
	results, ok := slo.Check(&rep)
	fmt.Printf("profile %s (%s mode, %d requests, %.1f req/s):\n", profile, rep.Mode, rep.Requests, rep.Throughput)
	for _, r := range results {
		fmt.Printf("  %s\n", r.Detail)
	}
	return ok
}

// benchLine matches one -benchmem result line, e.g.
// "BenchmarkSynthesizeVGG19/workers=1-8  3  97076510 ns/op  11646037 B/op  37509 allocs/op".
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+\d+\s+([\d.]+) ns/op\s+([\d.]+) B/op\s+([\d.]+) allocs/op`)

// stripProcs removes the trailing -<GOMAXPROCS> the bench runner appends.
func stripProcs(name string) string {
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			return name[:i]
		}
	}
	return name
}

func main() {
	baselinePath := flag.String("baseline", "BENCH_synth.json", "committed baseline file")
	benchPath := flag.String("bench", "", "bench output file (default stdin)")
	maxAllocsRatio := flag.Float64("max-allocs-ratio", 2.0, "fail when allocs/op exceeds baseline by this factor")
	serveBaseline := flag.String("serve-baseline", "", "BENCH_serve.json of load-test SLO profiles (switches to serve-gate mode)")
	profile := flag.String("profile", "", "profile name in -serve-baseline to gate against")
	reportPath := flag.String("report", "", "hap-loadgen JSON report to evaluate (serve-gate mode)")
	flag.Parse()

	if *serveBaseline != "" {
		if *profile == "" || *reportPath == "" {
			fatal("-serve-baseline requires -profile and -report")
		}
		if !checkServe(*serveBaseline, *profile, *reportPath) {
			fatal("SLO violation")
		}
		return
	}

	raw, err := os.ReadFile(*baselinePath)
	if err != nil {
		fatal("reading baseline: %v", err)
	}
	var base Baseline
	if err := json.Unmarshal(raw, &base); err != nil {
		fatal("parsing %s: %v", *baselinePath, err)
	}

	in := os.Stdin
	if *benchPath != "" {
		f, err := os.Open(*benchPath)
		if err != nil {
			fatal("opening bench output: %v", err)
		}
		defer f.Close()
		in = f
	}

	matched := 0
	failed := false
	measured := map[string]float64{} // name → ns/op from this run
	sc := bufio.NewScanner(in)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		name := stripProcs(m[1])
		ns, _ := strconv.ParseFloat(m[2], 64)
		measured[name] = ns
		entry, ok := base.Benchmarks[name]
		if !ok {
			continue
		}
		matched++
		allocs, _ := strconv.ParseFloat(m[4], 64)
		ratio := allocs / entry.AllocsPerOp
		status := "ok"
		if ratio > *maxAllocsRatio {
			status = fmt.Sprintf("FAIL (>%.1fx baseline)", *maxAllocsRatio)
			failed = true
		}
		fmt.Printf("%s: %.0f allocs/op vs baseline %.0f (%.2fx, %s); %.1f ms/op vs baseline %.1f (informational)\n",
			name, allocs, entry.AllocsPerOp, ratio, status, ns/1e6, entry.NsPerOp/1e6)
	}
	if err := sc.Err(); err != nil {
		fatal("reading bench output: %v", err)
	}
	if matched == 0 {
		fatal("no benchmark lines matched the baseline — wrong -bench output, or missing -benchmem?")
	}
	for _, g := range base.Relative {
		ns, okB := measured[g.Bench]
		vs, okV := measured[g.Versus]
		if !okB || !okV {
			continue // partial runs skip the gate rather than fail it
		}
		ratio := ns / vs
		status := "ok"
		if ratio > g.MaxRatio {
			status = fmt.Sprintf("FAIL (>%.2fx)", g.MaxRatio)
			failed = true
		}
		fmt.Printf("%s: %.1f ms/op = %.2fx of %s's %.1f ms/op (gate %.2fx, %s)\n",
			g.Bench, ns/1e6, ratio, g.Versus, vs/1e6, g.MaxRatio, status)
	}
	if failed {
		fatal("benchmark regression detected")
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchcheck: "+format+"\n", args...)
	os.Exit(1)
}
