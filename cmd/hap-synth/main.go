// Command hap-synth synthesizes and prints the distributed program for a
// paper benchmark on a chosen cluster — the counterpart of the artifact's
// master.py (compile without running).
//
// Usage:
//
//	hap-synth [-model VGG19|ViT|BERT-Base|BERT-MoE] [-k gpusPerMachine]
//	          [-cluster hetero|homo|a100p100] [-segments n] [-workers n]
//	          [-trace file] [-out plan.bin] [-server http://host:8080]
//
// The printed disassembly is the form a person reads; -out writes the binary
// plan payload, the one form hap.ReadProgramBinary loads, and fails unless
// it re-loads to the same program.
//
// With -server, synthesis is delegated to a hap-serve daemon over wire
// protocol v2 (binary plan encoding): repeated invocations for the same
// model and cluster hit the daemon's plan cache instead of re-synthesizing.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"time"

	"hap"
	"hap/client"
	"hap/internal/cluster"
	"hap/internal/models"
	"hap/internal/sim"
)

func main() {
	model := flag.String("model", "BERT-Base", "benchmark model (VGG19, ViT, BERT-Base, BERT-MoE)")
	k := flag.Int("k", 1, "GPUs per machine")
	clusterName := flag.String("cluster", "hetero", "cluster: hetero (2×V100+6×P100 machines), homo (4×P100), a100p100")
	segments := flag.Int("segments", 1, "model segments for per-segment sharding ratios")
	workers := flag.Int("workers", 0, "beam-search worker goroutines (0 = GOMAXPROCS); the plan is byte-identical for any value")
	trace := flag.String("trace", "", "write a Chrome trace of one simulated iteration to this file")
	out := flag.String("out", "", "write the plan (program, ratios, cost) as its binary payload to this file and check that it re-loads to the same program")
	server := flag.String("server", "", "synthesize via this hap-serve daemon (e.g. http://host:8080) instead of locally")
	flag.Parse()

	var c *cluster.Cluster
	switch *clusterName {
	case "hetero":
		c = cluster.PaperHeterogeneous(*k)
	case "homo":
		c = cluster.PaperHomogeneous(*k)
	case "a100p100":
		c = cluster.PaperA100P100()
	default:
		log.Fatalf("unknown cluster %q", *clusterName)
	}
	fmt.Print(c)

	g := models.Build(models.PaperModel(*model), c.TotalGPUs())
	fmt.Printf("model %s: %d nodes, %.1fM parameters, %.2f GFLOPs/iteration\n",
		*model, g.NumNodes(), float64(g.ParameterCount())/1e6, g.TotalFlops()/1e9)

	// ^C cancels the synthesis — locally it aborts the search within one
	// candidate batch; against a server it also aborts the remote search.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	var plan *hap.Plan
	var err error
	if *server != "" {
		start := time.Now()
		plan, err = client.New(*server).Synthesize(ctx, g, c, client.Options{Segments: *segments})
		if err == nil {
			// Plan bytes carry no timing: report the round trip.
			plan.SynthesisTime = time.Since(start).Seconds()
		}
	} else {
		plan, err = hap.NewPlanner(c, hap.WithSegments(*segments), hap.WithWorkers(*workers)).Plan(ctx, g)
	}
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsynthesis took %.2fs; modeled %.1f ms/iteration; simulated %.1f ms/iteration\n",
		plan.SynthesisTime, plan.Cost*1e3, sim.IterationTime(c, plan.Program, plan.Ratios, 1)*1e3)
	fmt.Printf("sharding ratios: %.3f\n\n", plan.Ratios)
	fmt.Print(plan.Program)
	st := plan.Program.Stats()
	fmt.Printf("\nprogram: %d instructions, %d collectives (%d ratio-scaled comps); histogram %v\n",
		st.Instrs, st.Comms, st.FlopsScaled, st.PerCollective)

	if *out != "" {
		var buf bytes.Buffer
		if err := plan.WriteProgramBinary(&buf); err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*out, buf.Bytes(), 0o644); err != nil {
			log.Fatal(err)
		}
		back, err := hap.ReadProgramBinary(bytes.NewReader(buf.Bytes()), g)
		if err != nil {
			log.Fatalf("re-loading %s: %v", *out, err)
		}
		if back.Program.String() != plan.Program.String() {
			log.Fatalf("round-trip through %s changed the program", *out)
		}
		fmt.Printf("wrote %s (round-trip ok)\n", *out)
	}

	if *trace != "" {
		f, err := os.Create(*trace)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := hap.WriteTrace(f, plan, c, 1); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n", *trace)
	}
}
