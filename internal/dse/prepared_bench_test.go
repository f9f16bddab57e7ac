package dse

import (
	"context"
	"reflect"
	"testing"

	"graphdse/internal/memsim"
)

// TestSweepPreparedMatchesSweep: the decode-once sweep must be
// observationally identical to the slice-based Sweep — same records, same
// metrics, same order — across the full small space.
func TestSweepPreparedMatchesSweep(t *testing.T) {
	events := smallTrace(t)
	points := EnumerateSpace(smallSpace())
	opts := SweepOptions{Workers: 2}

	want, err := Sweep(events, points, opts)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := memsim.Prepare(events)
	if err != nil {
		t.Fatal(err)
	}
	got, err := SweepPrepared(pt, points, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("records = %d, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Point.ID() != want[i].Point.ID() {
			t.Fatalf("record %d: point %s vs %s", i, got[i].Point.ID(), want[i].Point.ID())
		}
		if !reflect.DeepEqual(got[i].Result, want[i].Result) {
			t.Fatalf("record %d (%s): results differ:\n got %+v\nwant %+v",
				i, got[i].Point.ID(), got[i].Result, want[i].Result)
		}
	}
}

func TestSweepPreparedEmptyTrace(t *testing.T) {
	pt, err := memsim.Prepare(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SweepPrepared(pt, EnumerateSpace(smallSpace()), SweepOptions{}); err != memsim.ErrEmptyTrace {
		t.Fatalf("err = %v, want ErrEmptyTrace", err)
	}
	if _, err := SweepPrepared(nil, EnumerateSpace(smallSpace()), SweepOptions{}); err != memsim.ErrEmptyTrace {
		t.Fatalf("nil prepared: err = %v, want ErrEmptyTrace", err)
	}
}

// benchPoints is a small but mixed slice of the space so per-point cost
// differences (validate+decode per point vs decode once) dominate the
// benchmark, as they do over the paper's 416-point sweep.
func benchPoints() []DesignPoint {
	return EnumerateSpace(SpaceParams{
		CPUFreqsMHz:  []float64{2000},
		CtrlFreqsMHz: []float64{400},
		Channels:     []int{2},
		Fractions:    []float64{0.25, 0.5},
	})
}

// BenchmarkSweepSlice emulates the pre-refactor sweep: every design point
// re-validates and re-decodes the full event slice via memsim.RunTrace.
func BenchmarkSweepSlice(b *testing.B) {
	events := smallTrace(b)
	points := benchPoints()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range points {
			if _, err := memsim.RunTrace(p.Config(0), events); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkSweepPrepared is the post-refactor path: Prepare once, replay
// the immutable PreparedTrace at every point. Acceptance requires lower
// ns/op and allocs/op than BenchmarkSweepSlice.
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
		if _, err := SweepPrepared(pt, points, SweepOptions{Workers: 2}); err != nil {
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
