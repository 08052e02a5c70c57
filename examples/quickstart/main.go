// Quickstart: parallelize a small MLP training program across a mixed
// V100+P100 pair, print the synthesized SPMD program, verify it is
// semantically equivalent to the single-device program, and simulate an
// iteration.
package main

import (
	"context"
	"fmt"
	"log"

	"hap"
)

func main() {
	// 1. Write the model for a single imaginary device (Fig. 7).
	g := hap.NewGraph()
	x := g.AddPlaceholder("x", 0, 512, 784)
	w1 := g.AddParameter("w1", 784, 256)
	w2 := g.AddParameter("w2", 256, 10)
	h := g.AddOp(hap.ReLU, g.AddOp(hap.MatMul, x, w1))
	logits := g.AddOp(hap.MatMul, h, w2)
	g.SetLoss(g.AddOp(hap.Sum, g.AddScale(logits, 1.0/512)))
	if err := hap.Backward(g); err != nil {
		log.Fatal(err)
	}

	// 2. Describe the heterogeneous cluster.
	c := hap.PerGPU(
		hap.MachineSpec{Type: hap.V100, GPUs: 1},
		hap.MachineSpec{Type: hap.P100, GPUs: 1},
	)
	fmt.Print(c)

	// 3. Let HAP synthesize the distributed program and sharding ratios.
	plan, err := hap.NewPlanner(c).Plan(context.Background(), g)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nSPMD program (modeled %.2f ms/iteration):\n%s", plan.Cost*1e3, plan.Program)
	fmt.Printf("sharding ratios: %.3f\n", plan.Ratios[0])

	// 4. Prove it computes the same thing as the single-device program.
	if err := hap.Verify(plan, c.M(), 42); err != nil {
		log.Fatalf("equivalence check failed: %v", err)
	}
	fmt.Println("equivalence check: ok (distributed ≡ single-device)")

	// 5. Simulate one iteration on the modeled cluster.
	dt, err := hap.Simulate(plan, c, 1)
	if err != nil {
		log.Fatalf("simulate: %v", err)
	}
	fmt.Printf("simulated iteration time: %.2f ms\n", dt*1e3)
}
