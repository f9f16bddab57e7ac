package memsim

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// A trace partition is the replay engine's working form of a trace: the
// events routed to each channel, in arrival order, as struct-of-arrays
// batches. Replay touches every event exactly once in order, so three
// parallel uint64 slices stream through the cache far better than a slice
// of request structs — and the partition depends only on the address-mapping
// geometry, not on timing or scheduling, so one partition serves every sweep
// point that shares an interleave (see PreparedTrace.partitionFor).
//
// The packed meta word per event holds everything the channel engine needs
// besides the timestamp and line index:
//
//	bits  0–39  row within the bank
//	bits 40–62  per-channel bank index (rank*banksPerRank + bank)
//	bit     63  write flag
//
// Config.Validate enforces the packing bounds (RowsPerBank ≤ 2^40,
// ranks×banks ≤ 2^23), far beyond any physical organization.
const (
	metaRowBits   = 40
	metaRowMask   = 1<<metaRowBits - 1
	metaBankShift = metaRowBits
	metaBankBits  = 23
	metaBankMask  = 1<<metaBankBits - 1
	metaWrite     = uint64(1) << 63
)

func packMeta(row, bankIndex int, write bool) uint64 {
	m := uint64(row) | uint64(bankIndex)<<metaBankShift
	if write {
		m |= metaWrite
	}
	return m
}

func metaRow(m uint64) int      { return int(m & metaRowMask) }
func metaBank(m uint64) int     { return int(m >> metaBankShift & metaBankMask) }
func metaIsWrite(m uint64) bool { return m&metaWrite != 0 }

// channelPart is one channel's share of a partitioned trace.
type channelPart struct {
	cycles []float64 // CPU-cycle timestamps, converted once per geometry (controller arrival is computed at replay, since the clock ratio varies per config)
	lines  []uint64  // global line indices
	meta   []uint64  // packed row/bank/write
}

func (cp *channelPart) add(cycle, line, meta uint64) {
	cp.cycles = append(cp.cycles, float64(cycle))
	cp.lines = append(cp.lines, line)
	cp.meta = append(cp.meta, meta)
}

func (cp *channelPart) len() int { return len(cp.cycles) }

// tracePartition holds a trace routed to every channel of one geometry.
type tracePartition struct {
	chans []channelPart
}

func newTracePartition(channels, capHint int) *tracePartition {
	tp := &tracePartition{chans: make([]channelPart, channels)}
	if capHint > 0 {
		for ch := range tp.chans {
			tp.chans[ch] = channelPart{
				cycles: make([]float64, 0, capHint),
				lines:  make([]uint64, 0, capHint),
				meta:   make([]uint64, 0, capHint),
			}
		}
	}
	return tp
}

// route maps one event and appends it to its channel.
func (tp *tracePartition) route(m *AddressMapper, cycle, addr uint64, write bool) {
	loc := m.Map(addr)
	tp.chans[loc.Channel].add(cycle, loc.Line, packMeta(loc.Row, m.BankIndex(loc), write))
}

// partitionCapHint presizes per-channel slices assuming a roughly uniform
// interleave, with slack so skewed mappings rarely reallocate.
func partitionCapHint(n, channels int) int {
	return n/channels + n/8 + 8
}

// partitionChunk is the unit of parallel partitioning work.
const partitionChunk = 1 << 16

// partitionParallelMin is the trace length below which the serial builder
// wins (goroutine + concatenation overhead dominates).
const partitionParallelMin = 4 * partitionChunk

// buildPartition routes a decoded trace (parallel SoA slices) to channels.
// Large traces are partitioned by chunk across GOMAXPROCS workers and
// concatenated per channel in chunk order, which preserves the exact
// per-channel event order of the serial pass.
func buildPartition(m *AddressMapper, cycles, addrs []uint64, writes []bool) *tracePartition {
	n := len(cycles)
	workers := runtime.GOMAXPROCS(0)
	if workers <= 1 || n < partitionParallelMin {
		return buildPartitionSerial(m, cycles, addrs, writes)
	}
	nChunks := (n + partitionChunk - 1) / partitionChunk
	if workers > nChunks {
		workers = nChunks
	}
	locals := make([]*tracePartition, nChunks)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				c := int(next.Add(1)) - 1
				if c >= nChunks {
					return
				}
				lo := c * partitionChunk
				hi := min(lo+partitionChunk, n)
				part := newTracePartition(m.channels, partitionCapHint(hi-lo, m.channels))
				for i := lo; i < hi; i++ {
					part.route(m, cycles[i], addrs[i], writes[i])
				}
				locals[c] = part
			}
		}()
	}
	wg.Wait()
	// Concatenate chunk-local partitions per channel, in chunk order.
	out := &tracePartition{chans: make([]channelPart, m.channels)}
	for ch := range out.chans {
		total := 0
		for _, lp := range locals {
			total += lp.chans[ch].len()
		}
		cp := &out.chans[ch]
		cp.cycles = make([]float64, 0, total)
		cp.lines = make([]uint64, 0, total)
		cp.meta = make([]uint64, 0, total)
		for _, lp := range locals {
			cp.cycles = append(cp.cycles, lp.chans[ch].cycles...)
			cp.lines = append(cp.lines, lp.chans[ch].lines...)
			cp.meta = append(cp.meta, lp.chans[ch].meta...)
		}
	}
	return out
}

// buildPartitionSerial is the reference builder, and the one small traces
// use. A first pass counts each channel's events, so every channel's
// slices are allocated at exactly their final length: a cached partition
// lives as long as its trace, and a capacity guess would keep its slack
// (or the copy that trims it) for that long.
func buildPartitionSerial(m *AddressMapper, cycles, addrs []uint64, writes []bool) *tracePartition {
	counts := make([]int, m.channels)
	for _, a := range addrs {
		counts[m.channelOf(a)]++
	}
	tp := &tracePartition{chans: make([]channelPart, m.channels)}
	for ch, n := range counts {
		tp.chans[ch] = channelPart{
			cycles: make([]float64, 0, n),
			lines:  make([]uint64, 0, n),
			meta:   make([]uint64, 0, n),
		}
	}
	for i := range cycles {
		tp.route(m, cycles[i], addrs[i], writes[i])
	}
	return tp
}

// geomKey identifies an address-mapping geometry: two configurations with
// equal keys produce identical Map results for every address, so they can
// share a trace partition.
type geomKey struct {
	lineBytes int
	channels  int
	ranks     int
	banks     int
	rows      int
	cols      int
	colLow    int
	scheme    MappingScheme
}

// geom returns the mapper's geometry key.
func (m *AddressMapper) geom() geomKey {
	return geomKey{
		lineBytes: m.lineBytes,
		channels:  m.channels,
		ranks:     m.ranks,
		banks:     m.banks,
		rows:      m.rows,
		cols:      m.cols,
		colLow:    m.colLow,
		scheme:    m.scheme,
	}
}
