package dse

import (
	"context"
	"runtime"
	"testing"
	"time"

	"graphdse/internal/memsim"
)

// waitGoroutinesSettle fails the test if the goroutine count does not return
// to the baseline within a short settle window. Sweep worker pools must
// drain completely on success, failure, and cancellation — a stranded worker
// per sweep would accumulate across a long design-space campaign.
func waitGoroutinesSettle(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("goroutine leak: %d alive, baseline %d\n%s", n, base, buf)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestSweepNoGoroutineLeak(t *testing.T) {
	events := smallTrace(t)
	points := EnumerateSpace(smallSpace())
	base := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		if _, err := sweepEvents(events, points, SweepOptions{Workers: 4}); err != nil {
			t.Fatal(err)
		}
	}
	waitGoroutinesSettle(t, base)
}

func TestSweepCancelledNoGoroutineLeak(t *testing.T) {
	events := smallTrace(t)
	pt, err := memsim.Prepare(events)
	if err != nil {
		t.Fatal(err)
	}
	points := EnumerateSpace(smallSpace())
	base := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		opts := SweepOptions{Workers: 4, OnPoint: func(done, total int) {
			if done >= 2 {
				cancel()
			}
		}}
		_, err := SweepPreparedContext(ctx, pt, points, opts)
		cancel()
		if err == nil {
			t.Fatal("expected cancellation to abort the sweep")
		}
	}
	waitGoroutinesSettle(t, base)
}

func TestSweepFailureNoGoroutineLeak(t *testing.T) {
	events := smallTrace(t)
	points := EnumerateSpace(smallSpace())
	base := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		// Fatal faults on every point: the sweep completes with a failure
		// log, and every worker must still exit.
		opts := SweepOptions{
			Workers: 4,
			Faults:  &FaultInjector{Rules: []FaultRule{{Class: FaultCrash, Rate: 1.0, Seed: 3}}},
		}
		if _, err := sweepEvents(events, points, opts); err == nil {
			t.Fatal("expected all-failed sweep to report an error")
		}
	}
	waitGoroutinesSettle(t, base)
}
