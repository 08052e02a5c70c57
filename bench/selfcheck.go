package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// exactCounts are the per-layer counts that the inputs and the call pattern
// fix: two runs with one seed must report them identically.
var exactCounts = []string{
	"graph.nodes", "theory.triples", "synth.expansions", "synth.pushed", "synth.seeded_expansions",
	"passes.rewrites", "passes.collectives_out", "dist.instructions",
	"serve.hit_share", "serve.seeded_share", "serve.evictions",
}

// child runs one workload in a fresh process of this binary — one process
// per workload, so no workload inherits another's heap — echoes its output
// and returns the parsed result line.
func child(w *workload, cfg config, trace bool) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	t := "0"
	if trace {
		t = "1"
	}
	args := []string{
		"-workload", w.name, "-seed", strconv.FormatInt(cfg.seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-trace", t, "-out", cfg.outDir,
	}
	if cfg.smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(exe, args...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	os.Stdout.Write(out.Bytes())
	if runErr != nil {
		return nil, fmt.Errorf("%s (trace %s): %w", w.name, t, runErr)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	res := &result{}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), res); err != nil {
		return nil, fmt.Errorf("%s (trace %s): result line: %w", w.name, t, err)
	}
	return res, nil
}

// suite runs every workload untraced and traced; results are keyed
// "<workload>/<metric>".
func suite(cfg config) (map[string]float64, error) {
	all := map[string]float64{}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			res, err := child(w, cfg, trace)
			if err != nil {
				return nil, err
			}
			for name, m := range res.Metrics {
				all[w.name+"/"+name] = m.Value
			}
		}
	}
	return all, nil
}

// benchmarkFile is the part of BENCHMARK.json the self-check reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// selfCheck runs the suite twice with one seed and fails, naming the metric,
// when an end-to-end metric of the second suite is worse than the first's by
// more than its bound, or when an exact-repeat count differs at all.
func selfCheck(cfg config) error {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("selfcheck runs from the repository root: %w", err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	first, err := suite(cfg)
	if err != nil {
		return err
	}
	second, err := suite(cfg)
	if err != nil {
		return err
	}
	var bad []string
	for _, w := range workloads {
		for _, m := range bf.EndToEnd {
			a, b := first[w.name+"/"+m.Name], second[w.name+"/"+m.Name]
			worse := (b - a) / a
			if m.Better == "higher" {
				worse = (a - b) / a
			}
			fmt.Printf("# selfcheck %-13s %-18s %12.6g %12.6g  worse by %+.4f (bound %g)\n", w.name, m.Name, a, b, worse, m.Bound)
			if worse > m.Bound || math.IsNaN(worse) {
				bad = append(bad, fmt.Sprintf("%s/%s: %g then %g, worse by %.4f, bound %g", w.name, m.Name, a, b, worse, m.Bound))
			}
		}
		for _, name := range exactCounts {
			if a, b := first[w.name+"/"+name], second[w.name+"/"+name]; a != b {
				bad = append(bad, fmt.Sprintf("%s/%s: %g then %g, must repeat exactly", w.name, name, a, b))
			}
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("selfcheck failed:\n  %s", strings.Join(bad, "\n  "))
	}
	fmt.Println("# selfcheck passed")
	return nil
}
