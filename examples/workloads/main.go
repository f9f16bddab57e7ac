// Workloads: the paper's concluding research question — "how does the graph
// size and the type of graph algorithms influence the choice of good
// parameters for the memory architectures?" — answered by sweeping BFS,
// PageRank and connected components (and two graph sizes) through the same
// design space and comparing the per-workload winners.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"time"

	"graphdse/internal/dse"
	"graphdse/internal/sysim"
)

func main() {
	specs := []dse.WorkloadSpec{
		{Kind: dse.WorkloadBFS, Vertices: 1024, EdgeFactor: 16, Seed: 42},
		{Kind: dse.WorkloadBFS, Vertices: 4096, EdgeFactor: 16, Seed: 42},
		{Kind: dse.WorkloadPageRank, Vertices: 1024, EdgeFactor: 16, Seed: 42, PRIters: 3},
		{Kind: dse.WorkloadCC, Vertices: 1024, EdgeFactor: 16, Seed: 42},
	}
	// A reduced space keeps this example quick; the conclusions hold on the
	// full 416-point space via cmd/dse.
	space := dse.SpaceParams{
		CPUFreqsMHz:  []float64{2000, 6500},
		CtrlFreqsMHz: []float64{400, 1600},
		Channels:     []int{2, 4},
	}
	start := time.Now()
	comps, err := dse.CompareWorkloads(context.Background(), sysim.DefaultConfig(), specs, space, dse.SweepOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Per-workload memory co-design winners (%v):\n\n", time.Since(start).Round(time.Millisecond))
	dse.RenderWorkloadComparison(os.Stdout, comps)
	fmt.Println("\nReading the table: if the winning memory type changes across rows,")
	fmt.Println("the co-design choice is workload-sensitive — the cross-workload")
	fmt.Println("dataset the paper proposes for future work would then pay off.")
}
