package memsim

import (
	"math"
	"sync"
)

// Suffix sharing across clock ratios (DESIGN.md §11). A channel engine reads
// the clocks only through ratio = CtrlFreqMHz/CPUFreqMHz, and reads arrival
// cycles only in the admission check and the idle wake. Once a channel's
// controller queue has filled, admission waits on a slot rather than on an
// arrival, and from then on the channel's trajectory no longer depends on
// when requests arrived. Two configurations that differ only in their clock
// ratio then replay the same suffix, one constant shift Δ apart.
//
// The suffix memo keeps, per (configuration without its CPU clock,
// channel), one reference replay: its canonical engine state at a
// checkpoint just past its fill-up, and its statistics at the checkpoint
// and at the end. The state at the checkpoint is materialized when a
// sibling first needs it, so a one-shot replay pays nothing for it. A
// replay at a strictly smaller ratio runs only up to the checkpoint,
// checks that the reference's suffix is provably its own, shifted, and if
// so takes its remaining statistics from the reference; on any mismatch
// it continues from where it stopped.

// suffixMemoCap bounds memo entries per prepared trace. One entry is a
// Config and a ChannelStats, plus O(banks + QueueDepth) words and another
// ChannelStats once materialized; the paper's 416-point sweep needs one per
// (configuration without its CPU clock, channel) that saturates early, 284
// at paper scale.
const suffixMemoCap = 512

// suffixKey identifies configurations whose channel engines differ at most
// in their clock ratio: the validated configuration with the CPU clock
// zeroed, plus the channel. The engine would also allow siblings across
// controller clocks, but keeping that clock in the key means a replay at a
// space's lowest CPU clock is always a reference, never derived: the
// paper's space has its largest ratios there, so it loses nothing, and a
// benchmark that reruns such a point still times a full replay.
type suffixKey struct {
	cfg Config
	ch  int
}

func newSuffixKey(cfg *Config, ch int) suffixKey {
	k := suffixKey{cfg: *cfg, ch: ch}
	k.cfg.CPUFreqMHz = 0
	return k
}

// suffixEntry is one reference replay. What a finished replay knows for
// free is stored at capture; the engine state at the checkpoint costs a
// re-run of the prefix, so it is materialized only when a sibling first
// needs it (canonical). Its fields are immutable once published.
type suffixEntry struct {
	cfg   Config // the reference's configuration, CPU clock included
	ratio float64
	stop  int          // the checkpoint: the first loop top with next ≥ stop
	end   ChannelStats // statistics at the end

	once  sync.Once
	canon *suffixState // nil until materialized, or if materializing failed
}

// suffixState is a reference's engine state at its checkpoint. Times are
// offsets from now; times that can no longer bind are clamped to now
// (offset 0).
type suffixState struct {
	now                  uint64
	next, winLen, infLen int
	busFree              uint64
	win                  []winReq // enq holds now − enq
	inflight             []uint64
	banks                []bankState  // nextRefreshAt stays absolute
	reordered            bool         // FR-FCFS reordered the prefix
	ck                   ChannelStats // statistics at the checkpoint
}

// SuffixMemoStats reports the suffix memo's occupancy and traffic.
type SuffixMemoStats struct {
	Entries       int    // reference replays held
	Derived       uint64 // channel replays that took their suffix from a reference
	Fallbacks     uint64 // channel replays that reached a checkpoint, did not match, and ran on
	EventsSkipped uint64 // requests the derived channel replays did not simulate
}

// suffixMemo is a PreparedTrace's memo of reference suffixes.
type suffixMemo struct {
	mu      sync.Mutex
	entries map[suffixKey]*memoSlot
	clock   uint64 // LRU clock
	stats   SuffixMemoStats
}

type memoSlot struct {
	e       *suffixEntry
	lastUse uint64
}

// lookup returns the reference for key if its ratio is strictly larger than
// ratio, else nil.
func (m *suffixMemo) lookup(key suffixKey, ratio float64) *suffixEntry {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.entries[key]
	if !ok || !(s.e.ratio > ratio) {
		return nil
	}
	m.clock++
	s.lastUse = m.clock
	return s.e
}

// wants reports whether a reference at ratio would replace what key holds:
// the memo keeps the largest ratio, which serves the most siblings.
func (m *suffixMemo) wants(key suffixKey, ratio float64) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.entries[key]
	return !ok || ratio > s.e.ratio
}

// store publishes e under key unless a reference with a ratio at least as
// large arrived meanwhile, evicting the least recently used entry when the
// memo is full.
func (m *suffixMemo) store(key suffixKey, e *suffixEntry) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if s, ok := m.entries[key]; ok && s.e.ratio >= e.ratio {
		return
	}
	if m.entries == nil {
		m.entries = make(map[suffixKey]*memoSlot)
	}
	if _, ok := m.entries[key]; !ok && len(m.entries) >= suffixMemoCap {
		var oldest suffixKey
		oldestUse := uint64(math.MaxUint64)
		for k, s := range m.entries {
			if s.lastUse < oldestUse {
				oldest, oldestUse = k, s.lastUse
			}
		}
		delete(m.entries, oldest)
	}
	m.clock++
	m.entries[key] = &memoSlot{e: e, lastUse: m.clock}
}

func (m *suffixMemo) note(derived bool, skipped int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if derived {
		m.stats.Derived++
		m.stats.EventsSkipped += uint64(skipped)
	} else {
		m.stats.Fallbacks++
	}
}

func (m *suffixMemo) snapshot() SuffixMemoStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.stats
	st.Entries = len(m.entries)
	return st
}

// replay simulates one channel into dst through the trace's suffix memo.
func (e *channelEngine) replay(s *simulator, cp *channelPart, ratio float64, m *suffixMemo, ch int, dst *ChannelStats, hitRate *float64) {
	key := newSuffixKey(&s.cfg, ch)
	ref := m.lookup(key, ratio)
	rs, compared, derived := e.replayFrom(cp, ratio, ref, dst, hitRate)
	if compared {
		m.note(derived, cp.len()-rs.next)
	}
	if derived {
		return
	}
	if m.wants(key, ratio) {
		if ref := s.captureSuffix(cp, ratio, &rs, dst); ref != nil {
			m.store(key, ref)
		}
	}
}

// replayFrom simulates one channel into dst. With a reference, it runs to
// the reference's checkpoint, compares, and derives the rest if it can;
// otherwise it runs on to the end. It reports whether it reached the
// checkpoint and whether it derived, and returns where the run paused
// (derived) or ended.
func (e *channelEngine) replayFrom(cp *channelPart, ratio float64, ref *suffixEntry, dst *ChannelStats, hitRate *float64) (rs runState, compared, derived bool) {
	rs = newRunState()
	if ref != nil && e.run(cp, ratio, &rs, ref.stop) {
		if e.derive(cp, ratio, &rs, ref, dst, hitRate) {
			return rs, true, true
		}
		compared = true
	}
	e.run(cp, ratio, &rs, math.MaxInt)
	e.snapshot(dst, hitRate)
	return rs, compared, false
}

// captureSuffix turns a finished full replay (its final run state and
// statistics) into a reference. The checkpoint sits QueueDepth admissions
// past the last arrival-limited one, once the refilled queue holds
// requests that had to wait for a slot. captureSuffix returns nil when the
// checkpoint would fall in the second half of the channel, where a
// reference saves too little to pay for itself.
func (s *simulator) captureSuffix(cp *channelPart, ratio float64, fin *runState, end *ChannelStats) *suffixEntry {
	stop := fin.limited + 1 + s.cfg.QueueDepth
	if stop > cp.len()/2 {
		return nil
	}
	ref := &suffixEntry{cfg: s.cfg, ratio: ratio, stop: stop, end: *end}
	ref.end.PerBankBytes = append([]uint64(nil), end.PerBankBytes...)
	return ref
}

// state returns the reference's engine state at its checkpoint,
// materializing it on first use: it re-runs the reference configuration's
// prefix of cp, the channel it was captured on, to the checkpoint on a
// fresh pooled state. It returns nil if that run cannot be made.
func (r *suffixEntry) state(cp *channelPart) *suffixState {
	r.once.Do(func() {
		s, err := newSimulator(r.cfg)
		if err != nil {
			return
		}
		st := s.acquireState()
		defer releaseEngineState(st)
		e := newChannelEngine(s, st)
		rs := newRunState()
		if !e.run(cp, r.ratio, &rs, r.stop) {
			return
		}
		now := rs.now
		c := &suffixState{
			now: now, next: rs.next, winLen: rs.winLen, infLen: rs.infLen,
			busFree:   clampOffset(rs.busFree, now),
			reordered: rs.reordered,
			ck:        e.stats,
		}
		mask := len(st.win) - 1
		for j := 0; j < rs.winLen; j++ {
			w := st.win[(rs.winHead+j)&mask]
			w.enq = now - w.enq
			c.win = append(c.win, w)
		}
		for j := 0; j < rs.infLen; j++ {
			c.inflight = append(c.inflight, clampOffset(st.inflight[(rs.infHead+j)&mask], now))
		}
		for bi := range st.banks {
			c.banks = append(c.banks, e.canonBank(bi, now))
		}
		r.canon = c
	})
	return r.canon
}

// ratioOf is h/(h+m), or 0 when both are 0.
func ratioOf(h, m uint64) float64 {
	if h+m == 0 {
		return 0
	}
	return float64(h) / float64(h+m)
}

// clampOffset is t as an offset above now, 0 when t ≤ now.
func clampOffset(t, now uint64) uint64 {
	if t > now {
		return t - now
	}
	return 0
}

// canonBank is bank bi's state relative to now. readyAt and the tRAS
// precharge bound enter the engine only through max(·, t) with t ≥ now, so
// once ≤ now they are clamped; lastActivate is read only on an open-page
// precharge of an open row, and is 0 otherwise.
func (e *channelEngine) canonBank(bi int, now uint64) bankState {
	b := &e.st.banks[bi]
	c := bankState{openRow: b.openRow, readyAt: clampOffset(b.readyAt, now), nextRefreshAt: b.nextRefreshAt}
	if !e.closed && b.openRow >= 0 {
		t := e.back
		if e.flatHalf > 0 && bi < e.flatHalf {
			t = e.front
		}
		c.lastActivate = clampOffset(b.lastActivate+t.tras, now)
	}
	return c
}

// shiftLimit bounds the absolute cycles derive reasons about, so that
// shifted values and their differences stay exact in int64.
const shiftLimit = 1 << 62

// derive completes a replay paused at ref's checkpoint from ref's suffix, if
// the paused state equals ref's modulo one shift Δ and ref's suffix provably
// replays the same here. It reports whether it filled dst.
func (e *channelEngine) derive(cp *channelPart, ratio float64, rs *runState, entry *suffixEntry, dst *ChannelStats, hitRate *float64) bool {
	ref := entry.state(cp)
	if ref == nil {
		return false
	}
	now := rs.now
	if rs.next != ref.next || rs.winLen != ref.winLen || rs.infLen != ref.infLen ||
		now >= shiftLimit || ref.now >= shiftLimit {
		return false
	}
	delta := int64(now) - int64(ref.now)
	// Refresh runs on an absolute grid (nextRefreshAt), so it is not
	// shift-equivariant: only an unshifted state may match.
	if delta != 0 && (e.back.trefi > 0 || e.front.trefi > 0) {
		return false
	}
	// A hybrid cache's tags and LRU order are a function of the issue order;
	// without FR-FCFS reordering that is the trace order in both runs.
	if e.cache != nil && (rs.reordered || ref.reordered) {
		return false
	}
	if math.Float64bits(e.stats.EnergyNJ) != math.Float64bits(ref.ck.EnergyNJ) ||
		clampOffset(rs.busFree, now) != ref.busFree {
		return false
	}
	st := e.st
	mask := len(st.win) - 1
	for j, w := range ref.win {
		o := st.win[(rs.winHead+j)&mask]
		if now-o.enq != w.enq || o.line != w.line || o.meta != w.meta {
			return false
		}
	}
	for j, t := range ref.inflight {
		if clampOffset(st.inflight[(rs.infHead+j)&mask], now) != t {
			return false
		}
	}
	for bi, b := range ref.banks {
		if e.canonBank(bi, now) != b {
			return false
		}
	}
	// Every request after the checkpoint must be admissible at its shifted
	// admission cycle. The reference admitted request i no earlier than
	// the checkpoint and no earlier than its arrival there, so at or after
	// max(ref.now, A_i); here it arrives at a_i, which must come by that
	// bound + Δ. The same pass sums both arrivals for StallCycles.
	var sumRef, sumArr uint64
	for _, c := range cp.cycles[rs.next:] {
		f := c * entry.ratio
		if !(f < shiftLimit) {
			return false
		}
		refArr, a := uint64(f), uint64(c*ratio)
		if bound := int64(max(ref.now, refArr)) + delta; bound < 0 || a > uint64(bound) {
			return false
		}
		sumRef += refArr
		sumArr += a
	}

	// The suffix replays ref's, shifted by Δ: additive counters take ref's
	// suffix delta, times shift, and what depends only on the issued
	// sequence (energy, endurance, per-bank bytes) is ref's.
	ck, end := &e.stats, &entry.end
	d := *ck
	m := uint64(cp.len() - rs.next)
	add := func(own, refCk, refEnd uint64) uint64 { return own + (refEnd - refCk) }
	d.Reads = add(ck.Reads, ref.ck.Reads, end.Reads)
	d.Writes = add(ck.Writes, ref.ck.Writes, end.Writes)
	d.Refreshes = add(ck.Refreshes, ref.ck.Refreshes, end.Refreshes)
	d.RowHits = add(ck.RowHits, ref.ck.RowHits, end.RowHits)
	d.RowMisses = add(ck.RowMisses, ref.ck.RowMisses, end.RowMisses)
	d.SumDeviceLatency = add(ck.SumDeviceLatency, ref.ck.SumDeviceLatency, end.SumDeviceLatency)
	d.SumTotalLatency = add(ck.SumTotalLatency, ref.ck.SumTotalLatency, end.SumTotalLatency)
	d.CacheHits = add(ck.CacheHits, ref.ck.CacheHits, end.CacheHits)
	d.CacheMisses = add(ck.CacheMisses, ref.ck.CacheMisses, end.CacheMisses)
	d.CacheWritebacks = add(ck.CacheWritebacks, ref.ck.CacheWritebacks, end.CacheWritebacks)
	for b := range d.LatencyHist {
		d.LatencyHist[b] = add(ck.LatencyHist[b], ref.ck.LatencyHist[b], end.LatencyHist[b])
	}
	// Stall: Σ (shifted admission − own arrival) over the suffix, where the
	// reference's admissions sum to its suffix stall plus its arrivals.
	d.StallCycles = add(ck.StallCycles, ref.ck.StallCycles, end.StallCycles) + sumRef + uint64(delta)*m - sumArr
	d.Requests = uint64(cp.len())
	d.LastCompletion = end.LastCompletion + uint64(delta)
	d.EnergyNJ = end.EnergyNJ
	d.MaxRowWrites = end.MaxRowWrites
	d.PerBankBytes = append([]uint64(nil), end.PerBankBytes...)
	d.Activates = d.RowMisses
	d.BytesTransferred = end.BytesTransferred
	*dst = d
	if e.cache != nil {
		*hitRate = ratioOf(d.CacheHits, d.CacheMisses)
	}
	return true
}
