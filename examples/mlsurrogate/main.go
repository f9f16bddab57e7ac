// Mlsurrogate: regenerate the paper's Table I and Figure 3 — build the ML
// dataset from the design-space sweep, train the four surrogate regressors
// (Linear, SVM, RF, GB) per metric on an 80/20 split, report MSE/R², and
// print one Figure 3 prediction series. Also demonstrates the DSE speedup:
// surrogate prediction versus re-running the memory simulator.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"time"

	"graphdse/internal/dse"
	"graphdse/internal/memsim"
	"graphdse/internal/ml"
	"graphdse/internal/sysim"
)

func main() {
	ctx := context.Background()
	res, err := dse.RunWorkflowContext(ctx, dse.WorkflowOptions{
		Seed:      42,
		Repeats:   2,
		Sweep:     dse.SweepOptions{Faults: dse.PaperFaults(dse.PaperFailureRate, 1)},
		SplitSeed: 7,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("== Table I: surrogate model performance ==")
	dse.RenderTable1(os.Stdout, res.Table1)

	fmt.Println("\n== Figure 3 panel: Power ==")
	dse.RenderFigure3(os.Stdout, res.Figure3["Power"])

	// DSE economics: how much faster is querying the surrogate than
	// re-running the cycle-level simulator? (The paper's motivation: each
	// NVMain run took ~2 hours.)
	ds := res.Dataset
	var xs ml.MinMaxScaler
	X, err := xs.FitTransform(ds.X)
	if err != nil {
		log.Fatal(err)
	}
	y, err := ds.Metric("Power")
	if err != nil {
		log.Fatal(err)
	}
	svr := ml.NewSVR()
	if err := svr.Fit(X, y); err != nil {
		log.Fatal(err)
	}
	const queries = 1000
	start := time.Now()
	for i := 0; i < queries; i++ {
		svr.Predict(X[i%len(X)])
	}
	perPredict := time.Since(start) / queries

	// One simulator run for comparison, on the first surviving point: a
	// one-shot replay, trace preparation included.
	machine, _, err := sysim.PaperWorkloadTraceContext(ctx, sysim.DefaultConfig(), 1024, 16, 42, 2, nil)
	if err != nil {
		log.Fatal(err)
	}
	simStart := time.Now()
	pt, err := memsim.Prepare(machine.Trace())
	if err != nil {
		log.Fatal(err)
	}
	if _, err := memsim.RunPreparedTrace(ds.Points[0].Config(0), pt); err != nil {
		log.Fatal(err)
	}
	perSim := time.Since(simStart)
	fmt.Printf("\n== DSE economics ==\nsurrogate prediction: %v/query\nsimulator replay:     %v/config\nspeedup:              %.0fx\n",
		perPredict, perSim, float64(perSim)/float64(perPredict))
}
