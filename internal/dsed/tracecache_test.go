package dsed

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"graphdse/internal/memsim"
	"graphdse/internal/trace"
)

// tinyTrace builds a small real PreparedTrace.
func tinyTrace(t *testing.T) *memsim.PreparedTrace {
	t.Helper()
	events := []trace.Event{
		{Cycle: 1, Addr: 0x40, Op: trace.Read},
		{Cycle: 2, Addr: 0x80, Op: trace.Write},
		{Cycle: 3, Addr: 0xc0, Op: trace.Read},
	}
	pt, err := memsim.Prepare(events)
	if err != nil {
		t.Fatal(err)
	}
	return pt
}

// TestTraceCacheSingleFlight: N concurrent Gets for one key run the loader
// exactly once.
func TestTraceCacheSingleFlight(t *testing.T) {
	c := NewTraceCache(4)
	pt := tinyTrace(t)
	var loads atomic.Int64
	gate := make(chan struct{})

	const goroutines = 16
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, err := c.Get(context.Background(), "k", func(context.Context) (*memsim.PreparedTrace, error) {
				loads.Add(1)
				<-gate // hold every waiter in the same flight
				return pt, nil
			})
			errs[i] = err
		}(i)
	}
	close(gate)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if n := loads.Load(); n != 1 {
		t.Fatalf("loader ran %d times, want 1", n)
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits != goroutines-1 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestTraceCacheErrorNotCached: a failed load is delivered to its waiters
// and then forgotten — the next Get retries.
func TestTraceCacheErrorNotCached(t *testing.T) {
	c := NewTraceCache(4)
	boom := errors.New("transient decode failure")
	if _, err := c.Get(context.Background(), "k", func(context.Context) (*memsim.PreparedTrace, error) {
		return nil, boom
	}); !errors.Is(err, boom) {
		t.Fatalf("got %v, want loader error", err)
	}
	pt := tinyTrace(t)
	got, err := c.Get(context.Background(), "k", func(context.Context) (*memsim.PreparedTrace, error) {
		return pt, nil
	})
	if err != nil || got != pt {
		t.Fatalf("retry after error: pt=%v err=%v", got, err)
	}
}

// TestTraceCacheCorruptionFallsBackToRedecode: a hit whose fingerprint no
// longer matches must evict the entry and re-decode instead of serving the
// poisoned trace (or failing the job).
func TestTraceCacheCorruptionFallsBackToRedecode(t *testing.T) {
	c := NewTraceCache(4)
	pt := tinyTrace(t)
	if _, err := c.Get(context.Background(), "k", func(context.Context) (*memsim.PreparedTrace, error) {
		return pt, nil
	}); err != nil {
		t.Fatal(err)
	}
	// Simulate in-memory corruption: the stored checksum no longer matches
	// the decoded arrays.
	c.mu.Lock()
	c.entries["k"].crc ^= 0xdeadbeef
	c.mu.Unlock()

	var reloads atomic.Int64
	got, err := c.Get(context.Background(), "k", func(context.Context) (*memsim.PreparedTrace, error) {
		reloads.Add(1)
		return tinyTrace(t), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if reloads.Load() != 1 {
		t.Fatalf("corrupt hit did not re-decode (reloads=%d)", reloads.Load())
	}
	if got.Fingerprint() != pt.Fingerprint() {
		t.Fatal("re-decoded trace differs from original")
	}
	if st := c.Stats(); st.Corruptions != 1 {
		t.Fatalf("corruption counter: %+v", st)
	}
	// The replacement entry is healthy: the next Get is a plain hit.
	var extra atomic.Int64
	if _, err := c.Get(context.Background(), "k", func(context.Context) (*memsim.PreparedTrace, error) {
		extra.Add(1)
		return nil, errors.New("must not load")
	}); err != nil || extra.Load() != 0 {
		t.Fatalf("post-recovery hit reloaded: err=%v loads=%d", err, extra.Load())
	}
}

// TestTraceCacheEviction: the cache holds at most maxEntries completed
// decodes, evicting least-recently-used first.
func TestTraceCacheEviction(t *testing.T) {
	c := NewTraceCache(2)
	pt := tinyTrace(t)
	load := func(context.Context) (*memsim.PreparedTrace, error) { return pt, nil }
	for i := 0; i < 5; i++ {
		if _, err := c.Get(context.Background(), fmt.Sprintf("k%d", i), load); err != nil {
			t.Fatal(err)
		}
	}
	if st := c.Stats(); st.Entries > 2 {
		t.Fatalf("cache grew past its bound: %+v", st)
	}
	// Most-recent key k4 must still be resident.
	var loads atomic.Int64
	if _, err := c.Get(context.Background(), "k4", func(context.Context) (*memsim.PreparedTrace, error) {
		loads.Add(1)
		return pt, nil
	}); err != nil || loads.Load() != 0 {
		t.Fatalf("LRU evicted the most recent entry: err=%v loads=%d", err, loads.Load())
	}
}

// TestTraceCachePartitionSharing: concurrent jobs drawing one trace from the
// cache share its geometry-keyed partition cache — replays against configs
// of equal mapping geometry partition the trace once across all jobs, and
// the daemon's cache stats surface that reuse.
func TestTraceCachePartitionSharing(t *testing.T) {
	c := NewTraceCache(4)
	pt := tinyTrace(t)
	load := func(context.Context) (*memsim.PreparedTrace, error) { return pt, nil }

	const jobs = 6
	var wg sync.WaitGroup
	errs := make([]error, jobs)
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got, err := c.Get(context.Background(), "shared", load)
			if err != nil {
				errs[i] = err
				return
			}
			// Half the jobs sweep a 2-channel config, half a 4-channel one.
			cfg := memsim.NewDRAMConfig(2+2*(i%2), 2000, 400)
			_, errs[i] = memsim.RunPreparedTrace(cfg, got)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
	}
	st := c.Stats()
	if st.PartitionEntries != 2 {
		t.Fatalf("partition entries = %d, want 2 (one per geometry): %+v", st.PartitionEntries, st)
	}
	if st.PartitionMisses != 2 {
		t.Fatalf("partition builds = %d, want 2 across %d jobs: %+v", st.PartitionMisses, jobs, st)
	}
	if st.PartitionHits != jobs-2 {
		t.Fatalf("partition hits = %d, want %d: %+v", st.PartitionHits, jobs-2, st)
	}
}

// TestTraceCacheSuffixStats: the cache's suffix counters sum the suffix
// memos of every cached trace, as the partition and record counters do.
func TestTraceCacheSuffixStats(t *testing.T) {
	c := NewTraceCache(4)
	var want memsim.SuffixMemoStats
	for k, key := range []string{"a", "b"} {
		events := make([]trace.Event, 3000+1000*k)
		for i := range events {
			events[i] = trace.Event{Cycle: uint64(i / 2), Op: trace.Read, Addr: uint64(i*7919) << 6}
		}
		load := func(context.Context) (*memsim.PreparedTrace, error) { return memsim.Prepare(events) }
		pt, err := c.Get(context.Background(), key, load)
		if err != nil {
			t.Fatal(err)
		}
		// A reference at the larger clock ratio, then its sibling.
		for _, cpu := range []float64{2000, 4000} {
			if _, err := memsim.RunPreparedTrace(memsim.NewDRAMConfig(2, cpu, 400), pt); err != nil {
				t.Fatal(err)
			}
		}
		ss := pt.SuffixMemoStats()
		want.Entries += ss.Entries
		want.Derived += ss.Derived
		want.Fallbacks += ss.Fallbacks
		want.EventsSkipped += ss.EventsSkipped
	}
	st := c.Stats()
	if want.Derived == 0 || st.SuffixEntries != want.Entries || st.SuffixDerived != int64(want.Derived) ||
		st.SuffixFallbacks != int64(want.Fallbacks) || st.SuffixSkipped != int64(want.EventsSkipped) {
		t.Fatalf("cache stats %+v, want the memos' sum %+v (with derivations)", st, want)
	}
}
