package dsed

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"graphdse/internal/dse"
	"graphdse/internal/memsim"
)

// TraceCache is a content-addressed cache of decoded PreparedTraces with
// single-flight loading: when N concurrent jobs reference the same
// 91.5M-line trace, exactly one decodes it and the rest wait for that
// result. Entries carry the trace's fingerprint (CRC32-Castagnoli over the
// decoded arrays); every hit re-verifies it, and a mismatch — in-memory
// corruption of a structure shared by every job on the box — evicts the
// entry and re-decodes from the source of truth instead of failing the job.
// Each entry also keeps the successful point records sweeps on its trace
// have produced (see pointRecords), so they are evicted with the trace.
type TraceCache struct {
	mu sync.Mutex
	// entries is guarded by mu.
	entries    map[string]*cacheEntry
	maxEntries int

	hits        atomic.Int64
	misses      atomic.Int64
	corruptions atomic.Int64
}

// cacheEntry is one in-flight or completed decode. ready is closed when pt
// and err are final; gen orders entries for LRU eviction.
type cacheEntry struct {
	ready   chan struct{}
	pt      *memsim.PreparedTrace
	crc     uint32
	err     error
	gen     uint64
	records pointRecords
}

// maxPointRecords caps the point records one cached trace keeps: four
// full paper spaces. A full set stores nothing more.
const maxPointRecords = 4 * 416

// pointRecords is one cached trace's set of successful point records,
// keyed by the full design point (not its ID, which rounds DRAMFraction to
// two decimals). Replay is deterministic in (trace, point), so a job may
// take a record from here instead of replaying the point.
type pointRecords struct {
	mu sync.Mutex
	// recs, hits and misses are guarded by mu.
	recs         map[dse.DesignPoint]dse.RunRecord
	hits, misses int64
}

// lookup returns the record held for p, counting a hit or a miss.
func (pr *pointRecords) lookup(p dse.DesignPoint) (dse.RunRecord, bool) {
	pr.mu.Lock()
	defer pr.mu.Unlock()
	r, ok := pr.recs[p]
	if ok {
		pr.hits++
	} else {
		pr.misses++
	}
	return r, ok
}

// store keeps r when it is a first-attempt success and the set has room.
func (pr *pointRecords) store(r dse.RunRecord) {
	if r.Failed || r.Result == nil || r.Attempts != 1 {
		return
	}
	pr.mu.Lock()
	defer pr.mu.Unlock()
	if len(pr.recs) >= maxPointRecords {
		return
	}
	if pr.recs == nil {
		pr.recs = make(map[dse.DesignPoint]dse.RunRecord)
	}
	pr.recs[r.Point] = r
}

// stats reports how many records the set holds and its lookup counters.
func (pr *pointRecords) stats() (entries int, hits, misses int64) {
	pr.mu.Lock()
	defer pr.mu.Unlock()
	return len(pr.recs), pr.hits, pr.misses
}

var cacheGen atomic.Uint64

// NewTraceCache builds a cache bounded at maxEntries decoded traces
// (default 4). Eviction is LRU; evicting an entry in use is safe — the
// PreparedTrace is immutable and stays alive for its current holders.
func NewTraceCache(maxEntries int) *TraceCache {
	if maxEntries <= 0 {
		maxEntries = 4
	}
	return &TraceCache{entries: map[string]*cacheEntry{}, maxEntries: maxEntries}
}

// CacheStats is the cache's observability snapshot. The partition counters
// aggregate the geometry-keyed partition caches living inside the cached
// PreparedTraces: partition hits are sweep points that skipped address
// mapping entirely because a concurrent (or earlier) job already routed the
// trace for that geometry. The record counters aggregate the cached
// traces' point records the same way: record hits are points a job took
// from a record instead of replaying them. The suffix counters aggregate
// the cached traces' suffix memos (memsim.SuffixMemoStats): channel
// replays derived from a clock-ratio sibling, replays that compared and
// ran on, and the events the derived ones did not simulate.
type CacheStats struct {
	Entries          int   `json:"entries"`
	Hits             int64 `json:"hits"`
	Misses           int64 `json:"misses"`
	Corruptions      int64 `json:"corruptions"`
	PartitionEntries int   `json:"partition_entries"`
	PartitionHits    int64 `json:"partition_hits"`
	PartitionMisses  int64 `json:"partition_misses"`
	RecordEntries    int   `json:"record_entries"`
	RecordHits       int64 `json:"record_hits"`
	RecordMisses     int64 `json:"record_misses"`
	SuffixEntries    int   `json:"suffix_entries"`
	SuffixDerived    int64 `json:"suffix_derived"`
	SuffixFallbacks  int64 `json:"suffix_fallbacks"`
	SuffixSkipped    int64 `json:"suffix_events_skipped"`
}

// Stats snapshots the counters.
func (c *TraceCache) Stats() CacheStats {
	c.mu.Lock()
	n := len(c.entries)
	var pEntries, rEntries, sEntries int
	var pHits, pMisses, rHits, rMisses, sDerived, sFallbacks, sSkipped int64
	for _, e := range c.entries {
		select {
		case <-e.ready:
		default:
			continue // still decoding; no partitions yet
		}
		if e.pt == nil {
			continue
		}
		ps := e.pt.PartitionCacheStats()
		pEntries += ps.Entries
		pHits += int64(ps.Hits)
		pMisses += int64(ps.Misses)
		n, h, m := e.records.stats()
		rEntries += n
		rHits += h
		rMisses += m
		ss := e.pt.SuffixMemoStats()
		sEntries += ss.Entries
		sDerived += int64(ss.Derived)
		sFallbacks += int64(ss.Fallbacks)
		sSkipped += int64(ss.EventsSkipped)
	}
	c.mu.Unlock()
	return CacheStats{
		Entries:          n,
		Hits:             c.hits.Load(),
		Misses:           c.misses.Load(),
		Corruptions:      c.corruptions.Load(),
		PartitionEntries: pEntries,
		PartitionHits:    pHits,
		PartitionMisses:  pMisses,
		RecordEntries:    rEntries,
		RecordHits:       rHits,
		RecordMisses:     rMisses,
		SuffixEntries:    sEntries,
		SuffixDerived:    sDerived,
		SuffixFallbacks:  sFallbacks,
		SuffixSkipped:    sSkipped,
	}
}

// Get returns the prepared trace for key, loading it via load on a miss.
// Concurrent Gets for one key share a single load; a load error is
// delivered to every waiter and then forgotten, so the next Get retries. A
// fingerprint mismatch on a hit counts as corruption: the entry is dropped
// and the trace re-decoded (at most once per call chain — a loader that
// produces mismatching fingerprints twice in a row surfaces as corruption
// having been "fixed" by the second decode, which is indistinguishable from
// a fresh load).
func (c *TraceCache) Get(ctx context.Context, key string, load func(context.Context) (*memsim.PreparedTrace, error)) (*memsim.PreparedTrace, error) {
	e, err := c.get(ctx, key, load)
	if err != nil {
		return nil, err
	}
	return e.pt, nil
}

// get is Get returning the whole entry, so the caller also reaches the
// trace's point records.
func (c *TraceCache) get(ctx context.Context, key string, load func(context.Context) (*memsim.PreparedTrace, error)) (*cacheEntry, error) {
	for {
		c.mu.Lock()
		e, ok := c.entries[key]
		if !ok {
			e = &cacheEntry{ready: make(chan struct{}), gen: cacheGen.Add(1)}
			c.entries[key] = e
			c.evictLocked(key)
			c.mu.Unlock()
			c.misses.Add(1)

			pt, err := load(ctx)
			if err == nil && pt != nil {
				e.pt, e.crc = pt, pt.Fingerprint()
			} else if err == nil {
				err = fmt.Errorf("dsed: trace loader for %q returned nil trace", key)
			}
			e.err = err
			close(e.ready)
			if err != nil {
				// Errors are not cached: drop the entry so a transient
				// failure (file briefly missing, ctx cancelled) does not
				// poison the key forever.
				c.mu.Lock()
				if cur := c.entries[key]; cur == e {
					delete(c.entries, key)
				}
				c.mu.Unlock()
				return nil, err
			}
			return e, nil
		}
		e.gen = cacheGen.Add(1)
		c.mu.Unlock()

		select {
		case <-e.ready:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		if e.err != nil {
			// The flight we joined failed; loop to retry with our own load
			// (the failed entry was already removed by its owner).
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			continue
		}
		if got := e.pt.Fingerprint(); got != e.crc {
			// The decoded arrays no longer match the checksum taken at
			// decode time: memory corruption. Serving this trace would
			// silently poison every design point of every job using it, so
			// evict and re-decode.
			c.corruptions.Add(1)
			c.mu.Lock()
			if cur := c.entries[key]; cur == e {
				delete(c.entries, key)
			}
			c.mu.Unlock()
			continue
		}
		c.hits.Add(1)
		return e, nil
	}
}

// evictLocked drops least-recently-used completed entries beyond the
// capacity. In-flight loads are never evicted. Caller holds c.mu.
func (c *TraceCache) evictLocked(keep string) {
	for len(c.entries) > c.maxEntries {
		var victim string
		var oldest uint64 = ^uint64(0)
		for k, e := range c.entries {
			if k == keep {
				continue
			}
			select {
			case <-e.ready:
			default:
				continue // in flight
			}
			if e.gen < oldest {
				oldest, victim = e.gen, k
			}
		}
		if victim == "" {
			return
		}
		delete(c.entries, victim)
	}
}
