// Heterogeneous BERT: train a reduced BERT on the paper's mixed testbed
// shape (V100 + P100 machines) and compare HAP's plan against even and
// compute-proportional data parallelism — the Sec. 7.2 scenario.
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"hap"
	"hap/internal/baselines"
	"hap/internal/cluster"
	"hap/internal/models"
	"hap/internal/sim"
)

func main() {
	// 2 V100 machines + 6 P100 machines, 1 GPU each (scale with -full).
	k := 1
	if len(os.Args) > 1 && os.Args[1] == "-full" {
		k = 8
	}
	c := cluster.PaperHeterogeneous(k)
	fmt.Print(c)

	cfg := models.BERTBase()
	cfg.Layers = 4
	cfg.Vocab = 8192
	g := models.Training(models.BERT(cfg, 64*c.TotalGPUs()*32))

	plan, err := hap.NewPlanner(c).Plan(context.Background(), g)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nHAP:    %6.1f ms/iter (%d collectives, ratios %.3f)\n",
		sim.IterationTime(c, plan.Program, plan.Ratios, 1)*1e3,
		plan.Program.NumComms(), plan.Ratios[0])

	for _, bl := range []func() (*baselines.Plan, error){
		func() (*baselines.Plan, error) { return baselines.DPEV(g, c) },
		func() (*baselines.Plan, error) { return baselines.DPCP(g, c) },
	} {
		p, err := bl()
		if err != nil {
			log.Fatal(err)
		}
		status := fmt.Sprintf("%6.1f ms/iter", sim.IterationTime(c, p.Program, p.Ratios, 1)*1e3)
		if p.OOM {
			status = "OOM"
		}
		fmt.Printf("%-7s %s\n", p.Name+":", status)
	}

	// Dump a Chrome trace of HAP's iteration for inspection.
	f, err := os.Create("trace.json")
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	if err := hap.WriteTrace(f, plan, c, 1); err != nil {
		log.Fatal(err)
	}
	fmt.Println("wrote trace.json (open in chrome://tracing)")
}
