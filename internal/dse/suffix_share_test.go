package dse

import (
	"context"
	"fmt"
	"testing"

	"graphdse/internal/memsim"
	"graphdse/internal/sysim"
)

// suffixWorkload is the paper's workload at test scale, with its hybrid
// cache footprint in lines.
func suffixWorkload(t testing.TB, seed int64) (*sysim.Machine, int) {
	t.Helper()
	m, _, err := sysim.PaperWorkloadTraceContext(context.Background(), sysim.DefaultConfig(), 256, 8, seed, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	return m, int(m.Layout().Footprint()) / 64
}

// checkAgainstFresh requires every record's result to equal, in %#v (float
// bits and per-channel statistics included), a full replay of its point on
// a freshly prepared trace that shares nothing with the sweep.
func checkAgainstFresh(t *testing.T, m *sysim.Machine, footprint int, records []RunRecord) {
	t.Helper()
	for _, rec := range records {
		if rec.Failed {
			t.Fatalf("%s failed: %v", rec.Point.ID(), rec.Err)
		}
		fresh, err := memsim.Prepare(m.Trace())
		if err != nil {
			t.Fatal(err)
		}
		want, err := memsim.RunPreparedTrace(rec.Point.Config(footprint), fresh)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := fmt.Sprintf("%#v", rec.Result), fmt.Sprintf("%#v", want); got != want {
			t.Fatalf("%s: sweep result differs from a full replay on a fresh trace:\n got %s\nwant %s", rec.Point.ID(), got, want)
		}
	}
}

func channelReplays(points []DesignPoint) uint64 {
	var n uint64
	for _, p := range points {
		n += uint64(p.Channels)
	}
	return n
}

// TestSweepSuffixSharePaperSpace sweeps all 416 paper points on one shared
// PreparedTrace, where clock-ratio siblings derive their saturated suffixes
// from one another, and requires each point to equal a full replay on a
// fresh trace. It also pins that the memo does its job: at least 35% of
// the sweep's channel replays must be derived.
func TestSweepSuffixSharePaperSpace(t *testing.T) {
	points := EnumerateSpace(SpaceParams{})
	for _, seed := range []int64{42, 2021} {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			m, footprint := suffixWorkload(t, seed)
			pt, err := memsim.Prepare(m.Trace())
			if err != nil {
				t.Fatal(err)
			}
			records, err := SweepPreparedContext(context.Background(), pt, points, SweepOptions{FootprintLines: footprint, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			checkAgainstFresh(t, m, footprint, records)
			st := pt.SuffixMemoStats()
			total := channelReplays(points)
			t.Logf("memo %+v over %d channel replays of %d events", st, total, pt.Len())
			if st.Derived*100 < total*35 {
				t.Fatalf("derived %d of %d channel replays, want ≥ 35%%", st.Derived, total)
			}
		})
	}
}

// TestSweepSuffixShareConcurrentWorkers: four sweep workers deriving from
// and publishing to one trace's memo at once (run under -race in CI) must
// give the same results as full replays.
func TestSweepSuffixShareConcurrentWorkers(t *testing.T) {
	m, footprint := suffixWorkload(t, 7)
	pt, err := memsim.Prepare(m.Trace())
	if err != nil {
		t.Fatal(err)
	}
	points := EnumerateSpace(SpaceParams{CtrlFreqsMHz: []float64{400, 1600}, Channels: []int{2}})
	for pass := 0; pass < 2; pass++ {
		records, err := SweepPreparedContext(context.Background(), pt, points, SweepOptions{FootprintLines: footprint, Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstFresh(t, m, footprint, records)
	}
	if st := pt.SuffixMemoStats(); st.Derived == 0 {
		t.Fatalf("memo %+v: no channel replay was derived", st)
	}
}
