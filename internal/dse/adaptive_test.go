package dse

import (
	"context"
	"math"
	"testing"

	"graphdse/internal/memsim"
)

func TestAdaptiveDSEBudgetAndAccuracy(t *testing.T) {
	if testing.Short() {
		t.Skip("adaptive DSE in -short mode")
	}
	pt, err := memsim.Prepare(smallTrace(t))
	if err != nil {
		t.Fatal(err)
	}
	points := EnumerateSpace(SpaceParams{
		CPUFreqsMHz:  []float64{2000, 3000, 6500},
		CtrlFreqsMHz: []float64{400, 1600},
		Channels:     []int{2, 4},
	}) // 3×2×2 cells × 13 = 156 points
	budget := 60
	a := &AdaptiveDSE{Metric: "Power", InitialSamples: 12, BatchSize: 8, MaxSimulations: budget, Seed: 1}
	res, err := a.Run(context.Background(), pt, points, SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// The loop replays the caller's trace: it routes it to channels once
	// per mapping geometry (2 and 4 channels), not once per simulation.
	if st := pt.PartitionCacheStats(); st.Misses != 2 || st.Hits != uint64(res.Simulated-2) {
		t.Fatalf("partition cache %+v after %d simulations; want 2 builds", st, res.Simulated)
	}
	if res.Simulated > budget {
		t.Fatalf("budget exceeded: %d > %d", res.Simulated, budget)
	}
	if res.Simulated >= len(points) {
		t.Fatalf("adaptive exploration simulated everything (%d)", res.Simulated)
	}
	if res.Model == nil || res.PredictPoint == nil {
		t.Fatal("no surrogate produced")
	}
	if len(res.Records) != res.Simulated {
		t.Fatalf("records %d != simulated %d", len(res.Records), res.Simulated)
	}

	// The surrogate must approximate unexplored points reasonably: check
	// relative error on a handful of ground-truth simulations.
	explored := map[string]bool{}
	for _, r := range res.Records {
		explored[r.Point.ID()] = true
	}
	var checked int
	var totalRel float64
	for _, p := range points {
		if explored[p.ID()] || checked >= 8 {
			continue
		}
		truth, err := simulateOne(context.Background(), pt, p, SweepOptions{})
		if err != nil {
			t.Fatal(err)
		}
		pred := res.PredictPoint(p)
		totalRel += math.Abs(pred-truth.AvgPowerPerChannel) / truth.AvgPowerPerChannel
		checked++
	}
	if checked == 0 {
		t.Fatal("no unexplored points to verify against")
	}
	if mean := totalRel / float64(checked); mean > 0.25 {
		t.Fatalf("mean relative error %.2f on unexplored points", mean)
	}
}

func TestAdaptiveDSEValidation(t *testing.T) {
	pt, err := memsim.Prepare(smallTrace(t))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	a := &AdaptiveDSE{InitialSamples: 100}
	if _, err := a.Run(ctx, pt, EnumerateSpace(smallSpace())[:5], SweepOptions{}); err == nil {
		t.Fatal("expected too-few-points error")
	}
	b := &AdaptiveDSE{Metric: "nope"}
	if _, err := b.Run(ctx, pt, EnumerateSpace(smallSpace()), SweepOptions{}); err == nil {
		t.Fatal("expected unknown-metric error")
	}
}
