package dse

import (
	"context"
	"testing"

	"graphdse/internal/memsim"
)

func TestSweepPreparedEmptyTrace(t *testing.T) {
	pt, err := memsim.Prepare(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SweepPreparedContext(context.Background(), pt, EnumerateSpace(smallSpace()), SweepOptions{}); err != memsim.ErrEmptyTrace {
		t.Fatalf("err = %v, want ErrEmptyTrace", err)
	}
	if _, err := SweepPreparedContext(context.Background(), nil, EnumerateSpace(smallSpace()), SweepOptions{}); err != memsim.ErrEmptyTrace {
		t.Fatalf("nil prepared: err = %v, want ErrEmptyTrace", err)
	}
}

// benchPoints is a small but mixed slice of the space, so per-point replay
// cost dominates the benchmark as it does over the paper's 416-point sweep.
func benchPoints() []DesignPoint {
	return EnumerateSpace(SpaceParams{
		CPUFreqsMHz:  []float64{2000},
		CtrlFreqsMHz: []float64{400},
		Channels:     []int{2},
		Fractions:    []float64{0.25, 0.5},
	})
}

// BenchmarkSweepPrepared is the sweep's per-point path without the worker
// pool: Prepare once, replay the immutable PreparedTrace at every point.
func BenchmarkSweepPrepared(b *testing.B) {
	events := smallTrace(b)
	pt, err := memsim.Prepare(events)
	if err != nil {
		b.Fatal(err)
	}
	points := benchPoints()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range points {
			if _, err := memsim.RunPreparedTrace(p.Config(0), pt); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkSweepEndToEnd measures the whole engine (worker pool included)
// on the prepared path, the configuration the workflow now runs.
func BenchmarkSweepEndToEnd(b *testing.B) {
	events := smallTrace(b)
	pt, err := memsim.Prepare(events)
	if err != nil {
		b.Fatal(err)
	}
	points := benchPoints()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SweepPreparedContext(context.Background(), pt, points, SweepOptions{Workers: 2}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepClockSiblings sweeps all 416 paper points serially on one
// freshly prepared trace per iteration, as a perfbench trace-sweep pass
// does: points above the lowest CPU clock may derive their saturated
// channel suffixes from the sibling at a larger clock ratio.
func BenchmarkSweepClockSiblings(b *testing.B) {
	events := smallTrace(b)
	points := EnumerateSpace(SpaceParams{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		pt, err := memsim.Prepare(events)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := SweepPreparedContext(context.Background(), pt, points, SweepOptions{Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
}
