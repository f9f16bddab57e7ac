package memsim

import (
	"math/bits"
	"sync"
)

// engineState is the per-run mutable state of one channel engine: bank state
// machines, endurance counters, per-bank byte counters, the controller
// window/inflight rings, and (for hybrid-cache configs) the DRAM cache tag
// store. All of it is geometry-sized and zeroed on acquire, so a sweep
// replaying thousands of design points draws state from a pool instead of
// allocating ~300 KB per channel per point.
type engineState struct {
	banks     []bankState
	rowWrites []uint64 // flattened [bank*rows + row] endurance counters
	perBank   []uint64 // bytes transferred per bank
	win       []winReq // controller window ring storage (QueueDepth rounded up to a power of two)
	inflight  []uint64 // completion-time ring storage (as win)
	flatBank  []uint64 // flat-hybrid bank remap table (see channelEngine)
	cache     dramCache
}

var enginePool = sync.Pool{New: func() any { return &engineState{} }}

// acquireEngineState draws a pooled state and shapes it for a geometry:
// nb banks × rows, a depth-slot controller queue, and — when cacheLines > 0 —
// a DRAM cache. Everything is reset to the fresh-run state.
func acquireEngineState(nb, rows, depth, cacheLines, cacheWays int) *engineState {
	st := enginePool.Get().(*engineState)
	if cap(st.banks) < nb {
		st.banks = make([]bankState, nb)
	} else {
		st.banks = st.banks[:nb]
	}
	for i := range st.banks {
		st.banks[i] = bankState{openRow: -1}
	}
	nrw := nb * rows
	if cap(st.rowWrites) < nrw {
		st.rowWrites = make([]uint64, nrw)
	} else {
		st.rowWrites = st.rowWrites[:nrw]
		clear(st.rowWrites)
	}
	if cap(st.perBank) < nb {
		st.perBank = make([]uint64, nb)
	} else {
		st.perBank = st.perBank[:nb]
		clear(st.perBank)
	}
	slots := 1 << bits.Len(uint(depth-1)) // next power of two ≥ depth
	if cap(st.win) < slots {
		st.win = make([]winReq, slots)
	} else {
		st.win = st.win[:slots]
	}
	if cap(st.inflight) < slots {
		st.inflight = make([]uint64, slots)
	} else {
		st.inflight = st.inflight[:slots]
	}
	if cacheLines > 0 {
		st.cache.init(cacheLines, cacheWays)
	}
	return st
}

func releaseEngineState(st *engineState) { enginePool.Put(st) }
