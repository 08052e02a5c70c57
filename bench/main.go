// Command bench is the repository's benchmark: four named workloads over the
// planner (library path) and the plan-cache daemon (real client over
// loopback), end-to-end metrics from an untraced run and per-layer metrics
// from a traced one. BENCHMARK.json at the repository root is its contract;
// bench/README.md defines every metric.
//
//	go run ./bench -workload plan_cold -seed 1 [-seconds 15] [-trace 1]
//	go run ./bench -workload all -seed 1       # every workload, both runs
//	go run ./bench -selfcheck                  # the suite twice, compared
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is non-zero when a
// run cannot produce a trustworthy result (a drifted input, a failed set-up,
// a call over the 10 s cap, a daemon counter off the call pattern) or when
// any call failed its output check.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object a run ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) put(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// print writes every metric by name with its unit, then the JSON line.
func (r *result) print() error {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", n, m.Value)
		}
		fmt.Printf("%-28s %14.6g %s\n", n, m.Value, m.Unit)
	}
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func main() {
	name := flag.String("workload", "", "workload to run: plan_cold, plan_balance, serve_warm, serve_churn, or all")
	seed := flag.Int64("seed", 1, "seed of the call order and of the simulator's link noise")
	seconds := flag.Float64("seconds", 15, "sizes the timed section: rounds = seconds × the workload's rounds per second")
	trace := flag.Int("trace", 0, "1 = traced run: per-layer metrics and bench/out/trace-<workload>.json")
	smoke := flag.Bool("smoke", false, "one tiny input, one round: checks the benchmark itself")
	selfcheck := flag.Bool("selfcheck", false, "run the suite twice and compare the two against the bounds in BENCHMARK.json")
	out := flag.String("out", "bench/out", "directory for trace files")
	flag.Parse()

	cfg := config{seed: *seed, seconds: *seconds, trace: *trace != 0, smoke: *smoke, outDir: *out}
	var err error
	switch {
	case *selfcheck:
		err = selfCheck(cfg)
	case *name == "all":
		_, err = suite(cfg)
	default:
		w := findWorkload(*name)
		if w == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			flag.Usage()
			os.Exit(2)
		}
		err = runOne(w, cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runOne runs one workload in this process and prints its result.
func runOne(w *workload, cfg config) error {
	// Printed, never set: the numbers belong to this environment.
	fmt.Printf("# workload=%s seed=%d seconds=%g trace=%v %s GOMAXPROCS=%d NumCPU=%d\n",
		w.name, cfg.seed, cfg.seconds, cfg.trace, runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU())
	res, err := runWorkload(w, cfg)
	if err != nil {
		return err
	}
	if err := res.print(); err != nil {
		return err
	}
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d calls failed their output checks", w.name, res.Failed, res.Attempted)
	}
	return nil
}
