// Corun: a multi-programmed contention study — two BFS instances co-running
// on the same memory system (traces merged into disjoint address windows)
// versus each running alone. Quantifies how much queueing the second tenant
// adds per memory type, a question the paper's single-workload setup leaves
// open.
package main

import (
	"context"
	"fmt"
	"log"

	"graphdse/internal/memsim"
	"graphdse/internal/sysim"
	"graphdse/internal/trace"
)

func main() {
	mk := func(seed int64) []trace.Event {
		m, _, err := sysim.PaperWorkloadTraceContext(context.Background(), sysim.DefaultConfig(), 1024, 16, seed, 1, nil)
		if err != nil {
			log.Fatal(err)
		}
		return m.Trace()
	}
	alone := mk(42)
	tenant := mk(99)
	corun := trace.Merge(1<<26, alone, tenant)
	fmt.Printf("alone: %d events; co-run: %d events\n\n", len(alone), len(corun))
	alonePT, err := memsim.Prepare(alone)
	if err != nil {
		log.Fatal(err)
	}
	corunPT, err := memsim.Prepare(corun)
	if err != nil {
		log.Fatal(err)
	}

	flat := memsim.NewHybridConfig(2, 2000, 666, 67, 0.25)
	flat.HybridMode = memsim.HybridFlat
	configs := []struct {
		name string
		cfg  memsim.Config
	}{
		{"DRAM", memsim.NewDRAMConfig(2, 2000, 666)},
		{"NVM", memsim.NewNVMConfig(2, 2000, 666, 67)},
		{"Hybrid/f", flat},
	}
	fmt.Printf("%-9s %16s %16s %10s\n", "type", "alone totLat", "corun totLat", "slowdown")
	for _, c := range configs {
		a, err := memsim.RunPreparedTrace(c.cfg, alonePT)
		if err != nil {
			log.Fatal(err)
		}
		b, err := memsim.RunPreparedTrace(c.cfg, corunPT)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-9s %13.1f cy %13.1f cy %9.2fx\n",
			c.name, a.AvgTotalLatency, b.AvgTotalLatency,
			b.AvgTotalLatency/a.AvgTotalLatency)
	}
	fmt.Println("\nSlow NVM cells amplify contention: the co-run slowdown is largest")
	fmt.Println("where per-request service time is longest, so consolidation")
	fmt.Println("decisions interact with the memory-technology choice.")
}
