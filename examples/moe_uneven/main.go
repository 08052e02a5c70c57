// Uneven expert placement (Sec. 7.6): BERT-MoE with an expert count that
// does not divide the device count, on 2×A100 + 2×P100. HAP shards experts
// unevenly — more experts on the A100s — while a DeepSpeed-style system
// must pad the expert count to a multiple of the device count.
package main

import (
	"context"
	"fmt"
	"log"

	"hap"
	"hap/internal/baselines"
	"hap/internal/cluster"
	"hap/internal/models"
	"hap/internal/sim"
)

func main() {
	c := cluster.PaperA100P100()
	fmt.Print(c)

	for _, experts := range []int{4, 6, 10} {
		cfg := models.BERTMoE(c.M())
		cfg.Experts = experts
		cfg.Layers = 2
		cfg.Vocab = 8192
		tokens := 256 * experts // keep per-expert load constant
		g := models.Training(models.BERT(cfg, tokens))

		plan, err := hap.NewPlanner(c).Plan(context.Background(), g)
		if err != nil {
			log.Fatal(err)
		}
		hapT := sim.IterationTime(c, plan.Program, plan.Ratios, int64(experts))

		padded := baselines.PadExperts(experts, c.M())
		cfg.Experts = padded
		gp := models.Training(models.BERT(cfg, 256*padded))
		ds, err := baselines.DeepSpeed(gp, c)
		if err != nil {
			log.Fatal(err)
		}
		dsT := sim.IterationTime(c, ds.Program, ds.Ratios, int64(experts))

		fmt.Printf("experts=%2d: HAP %6.1f ms/iter | DeepSpeed (padded to %2d) %6.1f ms/iter\n",
			experts, hapT*1e3, padded, dsT*1e3)
	}
}
