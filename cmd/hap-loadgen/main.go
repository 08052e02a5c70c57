// Command hap-loadgen drives load against a hap-serve daemon (or fleet) and
// reports latency, cache-hit, and error statistics, optionally gating the
// run on SLO assertions.
//
// Usage:
//
//	hap-loadgen -target http://host:8080 [-mode closed|open]
//	            [-concurrency 8] [-rate 100] [-max-outstanding 1024]
//	            [-duration 5s] [-requests 0] [-seed 1]
//	            [-graphs 8] [-clusters 2] [-zipf 1.2]
//	            [-mix single=55,cond=20,cancel=5]
//	            [-warmup] [-slo "warm.p99<5ms,errors=0"] [-report out.json]
//
// The workload is a deterministic seeded corpus of random training graphs ×
// cluster shapes with zipf-distributed popularity, covering the daemon's
// real surface: synthesis, conditional fetch (If-None-Match), and
// mid-flight cancellation. Two
// drivers: closed loop (fixed concurrency) and open loop (Poisson arrivals
// at -rate, latency measured from the intended send time so coordinated
// omission cannot hide server queueing).
//
// -slo takes comma-separated assertions over the report (see internal/load:
// "warm.p99<5ms,errors=0,hit_ratio>=0.9"); any violation makes the process
// exit 1 after printing the verdicts — the CI gate. -report writes the full
// machine-readable JSON report, the artifact CI uploads.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"hap/internal/load"
)

func main() {
	target := flag.String("target", "http://127.0.0.1:8080", "daemon base URL")
	mode := flag.String("mode", "closed", "driver: closed (fixed concurrency) or open (Poisson arrivals)")
	concurrency := flag.Int("concurrency", 8, "closed-loop worker count")
	rate := flag.Float64("rate", 100, "open-loop target arrival rate, requests/second")
	maxOutstanding := flag.Int("max-outstanding", 1024, "open-loop cap on outstanding requests (queueing past it is charged to latency)")
	duration := flag.Duration("duration", 5*time.Second, "run length (ignored when -requests > 0)")
	requests := flag.Int("requests", 0, "stop after this many requests instead of -duration (0 = use -duration)")
	seed := flag.Int64("seed", 1, "workload seed; same seed = same request sequence")
	graphs := flag.Int("graphs", 8, "corpus graphs")
	clusters := flag.Int("clusters", 2, fmt.Sprintf("corpus clusters per graph (1..%d)", load.MaxClusters))
	zipf := flag.Float64("zipf", 1.2, "popularity skew (> 1; larger = hotter head)")
	mixFlag := flag.String("mix", "", "request class weights, e.g. single=40,cond=20 (empty = default mix)")
	warmup := flag.Bool("warmup", false, "serially synthesize the whole corpus before measuring (warm-cache runs)")
	slo := flag.String("slo", "", `SLO assertions over the report, e.g. "warm.p99<5ms,errors=0"; violations exit 1`)
	report := flag.String("report", "", "write the JSON report to this file (\"-\" = stdout)")
	timeout := flag.Duration("timeout", 30*time.Second, "per-request HTTP timeout")
	flag.Parse()

	fatal := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "hap-loadgen: "+format+"\n", args...)
		os.Exit(2)
	}

	sloChecks, err := load.ParseSLO(*slo)
	if err != nil {
		fatal("%v", err)
	}
	mix, err := load.ParseMix(*mixFlag)
	if err != nil {
		fatal("%v", err)
	}
	corpus, err := load.NewCorpus(*graphs, *clusters, *seed)
	if err != nil {
		fatal("%v", err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	hc := &http.Client{Timeout: *timeout}
	if *warmup {
		start := time.Now()
		n, err := load.Warmup(ctx, strings.TrimRight(*target, "/"), nil, corpus)
		if err != nil {
			fatal("warmup: %v", err)
		}
		fmt.Fprintf(os.Stderr, "hap-loadgen: warmed %d corpus plans in %.1fs\n", n, time.Since(start).Seconds())
	}

	opts := load.Options{
		Target:         strings.TrimRight(*target, "/"),
		Corpus:         corpus,
		Mix:            mix,
		ZipfS:          *zipf,
		Seed:           *seed,
		Concurrency:    *concurrency,
		Rate:           *rate,
		MaxOutstanding: *maxOutstanding,
		Duration:       *duration,
		Requests:       *requests,
		Client:         hc,
	}
	switch *mode {
	case "closed":
	case "open":
		opts.OpenLoop = true
	default:
		fatal("unknown -mode %q (closed or open)", *mode)
	}

	rep, err := load.Run(ctx, opts)
	if err != nil {
		fatal("%v", err)
	}
	fmt.Print(rep.Text())

	if *report != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fatal("encoding report: %v", err)
		}
		data = append(data, '\n')
		if *report == "-" {
			os.Stdout.Write(data)
		} else if err := os.WriteFile(*report, data, 0o644); err != nil {
			fatal("writing report: %v", err)
		}
	}

	if len(sloChecks.Assertions) > 0 {
		results, ok := sloChecks.Check(rep)
		fmt.Println("SLO:")
		for _, res := range results {
			fmt.Println("  " + res.Detail)
		}
		if !ok {
			os.Exit(1)
		}
	}
}
