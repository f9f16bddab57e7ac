// Transfer: the paper's §V transfer-learning direction, demonstrated on the
// DSE problem itself — a surrogate trained on the BFS workload's full sweep
// is transferred to the PageRank workload with only a handful of PageRank
// simulations, and compared against (a) reusing the BFS surrogate unchanged
// and (b) training a PageRank surrogate from scratch on the same few labels.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"graphdse/internal/dse"
	"graphdse/internal/memsim"
	"graphdse/internal/ml"
	"graphdse/internal/sysim"
)

func main() {
	space := dse.SpaceParams{
		CPUFreqsMHz:  []float64{2000, 3000, 5000, 6500},
		CtrlFreqsMHz: []float64{400, 666, 1250, 1600},
		Channels:     []int{2, 4},
	}
	points := dse.EnumerateSpace(space)
	ctx := context.Background()

	sweepFor := func(kind dse.WorkloadKind) *dse.Dataset {
		events, footprint, err := dse.TraceWorkload(sysim.DefaultConfig(), dse.WorkloadSpec{
			Kind: kind, Vertices: 512, EdgeFactor: 8, Seed: 42, PRIters: 2,
		})
		if err != nil {
			log.Fatal(err)
		}
		pt, err := memsim.Prepare(events)
		if err != nil {
			log.Fatal(err)
		}
		records, err := dse.SweepPreparedContext(ctx, pt, points, dse.SweepOptions{FootprintLines: footprint})
		if err != nil {
			log.Fatal(err)
		}
		ds, err := dse.BuildDataset(records)
		if err != nil {
			log.Fatal(err)
		}
		return ds
	}

	fmt.Println("sweeping BFS (source task, fully labeled)...")
	srcDS := sweepFor(dse.WorkloadBFS)
	fmt.Println("sweeping PageRank (target task, ground truth for evaluation)...")
	tgtDS := sweepFor(dse.WorkloadPageRank)

	// Shared feature scaling; target = total latency (workload-sensitive).
	var xs ml.MinMaxScaler
	srcX, err := xs.FitTransform(srcDS.X)
	if err != nil {
		log.Fatal(err)
	}
	tgtX := xs.Transform(tgtDS.X)
	srcY, _ := srcDS.Metric("TotalLatency")
	tgtY, _ := tgtDS.Metric("TotalLatency")

	source := &ml.RandomForest{NumTrees: 80, Seed: 1}
	if err := source.Fit(srcX, srcY); err != nil {
		log.Fatal(err)
	}

	// Few target labels: 24 random PageRank simulations.
	rng := rand.New(rand.NewSource(7))
	perm := rng.Perm(len(tgtX))
	few := 24
	var fx [][]float64
	var fy []float64
	testIdx := perm[few:]
	for _, i := range perm[:few] {
		fx = append(fx, tgtX[i])
		fy = append(fy, tgtY[i])
	}
	var teX [][]float64
	var teY []float64
	for _, i := range testIdx {
		teX = append(teX, tgtX[i])
		teY = append(teY, tgtY[i])
	}

	sourceOnly := ml.MSE(teY, ml.PredictBatch(source, teX))

	scratch := &ml.RandomForest{NumTrees: 80, Seed: 2}
	if err := scratch.Fit(fx, fy); err != nil {
		log.Fatal(err)
	}
	scratchMSE := ml.MSE(teY, ml.PredictBatch(scratch, teX))

	tr := &ml.TransferRegressor{Source: source, Seed: 3}
	if err := tr.Fit(fx, fy); err != nil {
		log.Fatal(err)
	}
	transferMSE := ml.MSE(teY, ml.PredictBatch(tr, teX))

	fmt.Printf("\nPredicting PageRank total latency with %d PageRank labels:\n", few)
	fmt.Printf("  BFS surrogate reused unchanged:   MSE %.4g\n", sourceOnly)
	fmt.Printf("  trained from scratch on %d labels: MSE %.4g\n", few, scratchMSE)
	fmt.Printf("  transfer (BFS prior + residual):  MSE %.4g\n", transferMSE)
	switch {
	case transferMSE <= sourceOnly && transferMSE <= scratchMSE:
		fmt.Println("\nTransfer wins: the BFS prior carries over and the residual fixes the workload shift.")
	default:
		fmt.Println("\nTransfer did not dominate on this draw — see the label-budget sensitivity in internal/ml tests.")
	}
}
