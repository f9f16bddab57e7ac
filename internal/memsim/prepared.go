package memsim

import (
	"encoding/binary"
	"hash/crc32"
	"io"
	"math"
	"sync"

	"graphdse/internal/trace"
)

// PreparedTrace is a trace validated and decoded exactly once into an
// immutable, sweep-shareable form. A design-space sweep replays the same
// trace against hundreds of configurations (416 in the paper); preparing it
// once drops the per-point work to address mapping and queueing — no
// re-validation, no re-decoding, no per-point copy of the event slice. The
// struct-of-arrays layout also streams through the cache better than
// []trace.Event during partitioning.
//
// On top of the decoded arrays, a PreparedTrace memoizes per-channel
// partitions keyed by mapping geometry (see partitionFor): sweep points
// sharing an interleave route the trace to channels once and replay the
// cached partition thereafter.
// It also keeps a suffix memo (suffix.go): a replay whose configuration
// differs from an earlier one only in a higher CPU clock takes its
// channels' saturated suffixes from that reference once it has checked
// they are the same.
//
// A PreparedTrace is safe for concurrent use by any number of simulators.
type PreparedTrace struct {
	cycles []uint64
	addrs  []uint64
	writes []bool
	stats  trace.Stats

	// Partition cache. Entries are single-flight: concurrent replays of a
	// new geometry block on ready while one goroutine partitions.
	pmu        sync.Mutex
	parts      map[geomKey]*partEntry
	partClock  uint64 // LRU clock
	partHits   uint64
	partMisses uint64

	// Suffix memo: reference replays shared across clock ratios (suffix.go).
	suffixes suffixMemo
}

type partEntry struct {
	ready   chan struct{} // closed once part is populated
	part    *tracePartition
	lastUse uint64
}

// partitionCacheCap bounds cached partitions per trace. The paper's 416-point
// space spans only two mapping geometries (2 and 4 channels), so a small cap
// holds every geometry of a realistic sweep while bounding worst-case memory
// at cap × trace size.
const partitionCacheCap = 8

// partitionFor returns the per-channel partition of this trace under the
// mapper's geometry, building (in parallel, for large traces) and caching it
// on first use. Concurrent callers with the same geometry share one build.
func (p *PreparedTrace) partitionFor(m *AddressMapper) *tracePartition {
	key := m.geom()
	p.pmu.Lock()
	if p.parts == nil {
		p.parts = make(map[geomKey]*partEntry)
	}
	p.partClock++
	if e, ok := p.parts[key]; ok {
		e.lastUse = p.partClock
		p.partHits++
		p.pmu.Unlock()
		<-e.ready
		return e.part
	}
	p.partMisses++
	if len(p.parts) >= partitionCacheCap {
		// Evict the least-recently-used completed entry; in-flight builds
		// are never evicted (their builders would leak the slot).
		var oldest geomKey
		oldestUse := uint64(math.MaxUint64)
		found := false
		for k, e := range p.parts {
			select {
			case <-e.ready:
			default:
				continue
			}
			if e.lastUse < oldestUse {
				oldest, oldestUse, found = k, e.lastUse, true
			}
		}
		if found {
			delete(p.parts, oldest)
		}
	}
	e := &partEntry{ready: make(chan struct{}), lastUse: p.partClock}
	p.parts[key] = e
	p.pmu.Unlock()
	e.part = buildPartition(m, p.cycles, p.addrs, p.writes)
	close(e.ready)
	return e.part
}

// PartitionCacheStats reports the partition cache's occupancy and traffic.
type PartitionCacheStats struct {
	Entries int    // geometries currently cached
	Hits    uint64 // replays served by a cached (or in-flight) partition
	Misses  uint64 // replays that built a partition
}

// PartitionCacheStats returns a snapshot of the partition cache counters.
func (p *PreparedTrace) PartitionCacheStats() PartitionCacheStats {
	p.pmu.Lock()
	defer p.pmu.Unlock()
	return PartitionCacheStats{Entries: len(p.parts), Hits: p.partHits, Misses: p.partMisses}
}

// SuffixMemoStats returns a snapshot of the suffix memo counters.
func (p *PreparedTrace) SuffixMemoStats() SuffixMemoStats { return p.suffixes.snapshot() }

// Prepare validates and decodes events into a PreparedTrace.
func Prepare(events []trace.Event) (*PreparedTrace, error) {
	p := newPreparedTrace(len(events))
	if err := p.append(events); err != nil {
		return nil, err
	}
	return p, nil
}

// PrepareSource drains a trace stream into a PreparedTrace, validating each
// event exactly once. Only the decoded arrays are retained; the stream
// itself is never materialized as []trace.Event.
func PrepareSource(src trace.Source) (*PreparedTrace, error) {
	p := newPreparedTrace(0)
	batch := make([]trace.Event, trace.DefaultBatch)
	for {
		n, err := src.Next(batch)
		if aerr := p.append(batch[:n]); aerr != nil {
			return nil, aerr
		}
		if err == io.EOF {
			return p, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

func newPreparedTrace(capHint int) *PreparedTrace {
	return &PreparedTrace{
		cycles: make([]uint64, 0, capHint),
		addrs:  make([]uint64, 0, capHint),
		writes: make([]bool, 0, capHint),
	}
}

func (p *PreparedTrace) append(events []trace.Event) error {
	for _, e := range events {
		if err := e.Validate(); err != nil {
			return err
		}
		p.cycles = append(p.cycles, e.Cycle)
		p.addrs = append(p.addrs, e.Addr)
		p.writes = append(p.writes, e.Op == trace.Write)
		p.stats.Add(e)
	}
	return nil
}

// Len returns the number of events in the prepared trace.
func (p *PreparedTrace) Len() int { return len(p.cycles) }

// preparedCRCTable is CRC32-Castagnoli, matching the artifact container's
// checksum choice.
var preparedCRCTable = crc32.MakeTable(crc32.Castagnoli)

// Fingerprint returns a CRC32-Castagnoli checksum over the decoded event
// arrays. A prepared trace is immutable, so its fingerprint is fixed at
// preparation time; long-lived holders (the daemon's content-addressed trace
// cache) recompute it on access to detect in-memory corruption of an entry
// shared by many concurrent jobs and re-decode instead of serving poison.
// The partition cache and the suffix memo are derived state and
// deliberately outside the fingerprint.
func (p *PreparedTrace) Fingerprint() uint32 {
	h := crc32.New(preparedCRCTable)
	var buf [17]byte
	for i := range p.cycles {
		binary.LittleEndian.PutUint64(buf[0:8], p.cycles[i])
		binary.LittleEndian.PutUint64(buf[8:16], p.addrs[i])
		buf[16] = 0
		if p.writes[i] {
			buf[16] = 1
		}
		h.Write(buf[:])
	}
	return h.Sum32()
}

// Stats returns the aggregate trace statistics gathered during preparation.
func (p *PreparedTrace) Stats() trace.Stats { return p.stats }

// Events reconstructs the trace as a fresh []trace.Event slice. The thread
// tag is not retained by preparation (the simulator does not consume it), so
// reconstructed events carry thread 0.
func (p *PreparedTrace) Events() []trace.Event {
	out := make([]trace.Event, len(p.cycles))
	for i := range out {
		op := trace.Read
		if p.writes[i] {
			op = trace.Write
		}
		out[i] = trace.Event{Cycle: p.cycles[i], Op: op, Addr: p.addrs[i]}
	}
	return out
}

// RunPrepared replays a prepared trace. Events are not re-validated — that
// happened once at Prepare time — and the per-channel partition is drawn
// from the trace's geometry-keyed cache, so per-point cost is channel
// simulation plus (on a geometry's first use only) address mapping.
func (s *Simulator) RunPrepared(p *PreparedTrace) (*Result, error) {
	if p.Len() == 0 {
		return nil, ErrEmptyTrace
	}
	return s.runPartition(p.partitionFor(s.mapper), &p.suffixes)
}

// RunSource replays a trace stream in one pass without materializing it as
// []trace.Event: each batch is validated, mapped, and partitioned into the
// per-channel queues as it arrives. Memory use is the simulator's working
// form (the per-channel partition) plus one batch.
func (s *Simulator) RunSource(src trace.Source) (*Result, error) {
	part := newTracePartition(s.cfg.Channels, 0)
	batch := make([]trace.Event, trace.DefaultBatch)
	total := 0
	for {
		n, err := src.Next(batch)
		for _, e := range batch[:n] {
			if verr := e.Validate(); verr != nil {
				return nil, verr
			}
			part.route(s.mapper, e.Cycle, e.Addr, e.Op == trace.Write)
		}
		total += n
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
	}
	if total == 0 {
		return nil, ErrEmptyTrace
	}
	return s.runPartition(part, nil)
}

// RunPreparedTrace is the PreparedTrace analog of RunTrace: build a
// simulator for cfg and replay the prepared trace in one call.
func RunPreparedTrace(cfg Config, p *PreparedTrace) (*Result, error) {
	sim, err := New(cfg)
	if err != nil {
		return nil, err
	}
	return sim.RunPrepared(p)
}

// RunTraceSource is the streaming analog of RunTrace.
func RunTraceSource(cfg Config, src trace.Source) (*Result, error) {
	sim, err := New(cfg)
	if err != nil {
		return nil, err
	}
	return sim.RunSource(src)
}
