// Command hap-bench regenerates the paper's tables and figures (Sec. 7) on
// the simulated substrate and prints them as text tables — the counterpart
// of the artifact's worker.py experiment driver.
//
// Usage:
//
//	hap-bench [experiment ids...]
//
// With no ids, all experiments run in order. Known ids: table1 fig2 fig4
// fig13 fig14 fig15 fig16 fig17 fig18 fig19. Every id is checked before any
// experiment runs.
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"hap/internal/experiments"
)

func main() {
	flag.Parse()

	ids := flag.Args()
	if len(ids) == 0 {
		ids = experiments.Order
	}
	for _, id := range ids {
		if _, ok := experiments.All[id]; !ok {
			log.Fatalf("unknown experiment %q (known: %v)", id, experiments.Order)
		}
	}
	for _, id := range ids {
		start := time.Now()
		fmt.Println(experiments.All[id]())
		fmt.Printf("(%s generated in %v)\n\n", id, time.Since(start).Round(time.Millisecond))
	}
}
