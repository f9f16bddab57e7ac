// Memsweep: regenerate the paper's Figure 2 — sweep the full 416-point
// memory design space over the BFS trace (with the paper's ~10% simulated
// crash rate) and print the per-cell metric means for DRAM, NVM and hybrid.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"time"

	"graphdse/internal/dse"
	"graphdse/internal/memsim"
	"graphdse/internal/sysim"
)

func main() {
	ctx := context.Background()
	machine, _, err := sysim.PaperWorkloadTraceContext(ctx, sysim.DefaultConfig(), 1024, 16, 42, 2, nil)
	if err != nil {
		log.Fatal(err)
	}
	events := machine.Trace()
	points := dse.EnumerateSpace(dse.SpaceParams{})
	fmt.Fprintf(os.Stderr, "sweeping %d configurations over %d trace events...\n", len(points), len(events))

	start := time.Now()
	pt, err := memsim.Prepare(events)
	if err != nil {
		log.Fatal(err)
	}
	records, err := dse.SweepPreparedContext(ctx, pt, points, dse.SweepOptions{
		FootprintLines: int(machine.Layout().Footprint()) / 64,
		// The paper's ~10% NVMain crash rate, expressed as a fault-injection
		// rule; the engine contains each crash in its record.
		Faults: dse.PaperFaults(dse.PaperFailureRate, 1),
	})
	if err != nil {
		log.Fatal(err)
	}
	survivors := dse.Survivors(records)
	fmt.Fprintf(os.Stderr, "%d/%d configurations survived (paper: 374/416) in %v\n",
		len(survivors), len(records), time.Since(start).Round(time.Millisecond))
	dse.RenderFailureLog(os.Stderr, dse.BuildFailureLog(records))

	dse.RenderFigure2(os.Stdout, dse.BuildFigure2(records))
}
