package memsim

import (
	"math"
	"math/bits"
)

// winReq is one admitted request in the controller window.
type winReq struct {
	enq  uint64 // admission cycle (total latency = completion − enq)
	line uint64 // global line index
	meta uint64 // packed row / effective bank / write (see partition.go)
}

type bankState struct {
	openRow       int64
	readyAt       uint64
	lastActivate  uint64
	nextRefreshAt uint64
}

// channelEngine simulates one channel: per-bank state machines, a shared
// data bus, a scheduling window, and (for hybrid) the DRAM cache front.
// All mutable per-run state lives in the pooled engineState; the engine
// itself is a stack value wired to the simulator's immutable tables. The
// clock, the data-bus cursor and the queue's ring positions are locals of
// run; service takes the clock and the bus cursor as arguments.
//
// The controller queue is two rings over pooled storage, each sized to the
// next power of two ≥ QueueDepth so a mask does the wrap; together they
// hold at most QueueDepth requests:
//
//   - win holds admitted-but-unscheduled requests in arrival order. FCFS
//     pops the head; FR-FCFS removes from the middle by shifting whichever
//     side is shorter.
//   - inflight holds completion times of issued requests in issue order.
//     Completion times are non-decreasing in issue order (see service), so
//     it is a plain FIFO: its head is the earliest completion, and
//     retirement pops it.
type channelEngine struct {
	cfg       *Config
	mapper    *AddressMapper
	st        *engineState
	back      *timingTable // backing store (the only tier for DRAM/NVM)
	front     *timingTable // DRAM tier of a hybrid
	rows      int
	lineBytes uint64
	stats     ChannelStats
	cache     *dramCache // hybrid-cache front, else nil
	// flatHalf > 0 marks a flat hybrid: banks [0, flatHalf) are DRAM-timed,
	// banks [flatHalf, 2·flatHalf) NVM-timed. A line's tier is DRAM when
	// its hash mod 1024 is below flatCut = ⌈DRAMFraction·1024⌉, and
	// st.flatBank[bank<<1|tier] is its remapped, pre-shifted bank field.
	flatHalf int
	flatCut  uint64
	closed   bool // ClosedPage policy
	frfcfs   bool
}

func newChannelEngine(s *simulator, st *engineState) channelEngine {
	cfg := &s.cfg
	e := channelEngine{
		cfg:       cfg,
		mapper:    s.mapper,
		st:        st,
		back:      &s.back,
		front:     &s.front,
		rows:      cfg.RowsPerBank,
		lineBytes: uint64(cfg.LineBytes),
		closed:    cfg.Policy == ClosedPage,
		frfcfs:    cfg.Scheduler != FCFS,
	}
	if cfg.Type == Hybrid {
		if cfg.HybridMode == HybridFlat {
			nb := s.mapper.BanksPerChannel()
			e.flatHalf = max(nb/2, 1)
			// For an integer k, k < x exactly when k < ⌈x⌉.
			e.flatCut = uint64(math.Ceil(cfg.DRAMFraction * 1024))
			st.flatBank = st.flatBank[:0]
			for b := 0; b < nb; b++ {
				for tier := 0; tier < 2; tier++ {
					st.flatBank = append(st.flatBank, uint64(b%e.flatHalf+tier*e.flatHalf)<<metaBankShift)
				}
			}
		} else {
			e.cache = &st.cache
		}
	}
	return e
}

// flatTier assigns a line to the DRAM tier (0) or NVM tier (1) of a flat
// hybrid, placing DRAMFraction of the address space on DRAM via a stable
// hash.
func (e *channelEngine) flatTier(line uint64) int {
	h := (line * 0x9E3779B97F4A7C15) >> 40
	if h%1024 < e.flatCut {
		return 0
	}
	return 1
}

// runState is the replay loop's position: the clock, the data-bus cursor,
// the last completion and both rings' head and length, plus the admission
// cursor. run keeps them in locals and saves them here when it pauses at a
// checkpoint, so a paused run resumes exactly where it stopped.
//
// It also carries what suffix sharing (suffix.go) needs to know about the
// run so far, in O(1) space: limited is the index of the request the last
// arrival-limited admission check found unarrived (a check that had a free
// slot but nothing to admit; -1 if none), and reordered whether FR-FCFS
// ever issued a request other than the window's oldest.
type runState struct {
	now, busFree, done                     uint64
	winHead, winLen, infHead, infLen, next int
	limited                                int
	reordered                              bool
}

func newRunState() runState { return runState{limited: -1} }

// run processes the channel's partition (already sorted by arrival). The
// controller queue is bounded at QueueDepth and exerts backpressure, as
// NVMain's trace replay does: a request occupies a queue slot from admission
// until completion, and admission stalls while the queue is full. Total
// latency is measured from admission (queueing + service), which bounds it
// near QueueDepth × service time even under saturation. Controller arrival
// cycles are derived from the partition's CPU-cycle timestamps here, since
// the clock ratio is a per-configuration property.
//
// run starts from rs and pauses, saving its position back into rs and
// returning true, at the top of the first loop iteration that finds at
// least stop requests admitted; it returns false once the channel drains.
func (e *channelEngine) run(part *channelPart, ratio float64, rs *runState, stop int) bool {
	win, inflight := e.st.win, e.st.inflight
	mask := len(win) - 1
	depth := e.cfg.QueueDepth
	cycles, lines, metas := part.cycles, part.lines, part.meta
	var flat []uint64
	if e.flatHalf > 0 {
		flat = e.st.flatBank
	}
	n := len(cycles)
	now, busFree, done := rs.now, rs.busFree, rs.done
	winHead, winLen, infHead, infLen, next := rs.winHead, rs.winLen, rs.infHead, rs.infLen, rs.next
	limited, reordered := rs.limited, rs.reordered
	var nextArrival uint64
	if next < n {
		nextArrival = uint64(cycles[next] * ratio)
	}
	for winLen > 0 || next < n {
		if next >= stop {
			*rs = runState{now: now, busFree: busFree, done: done,
				winHead: winHead, winLen: winLen, infHead: infHead, infLen: infLen, next: next,
				limited: limited, reordered: reordered}
			return true
		}
		// Retire completed in-flight requests: pop the FIFO's head.
		for infLen > 0 && inflight[infHead] <= now {
			infHead = (infHead + 1) & mask
			infLen--
		}
		// Admit arrived requests while the queue has room. A request is
		// admitted at the first step at or after its arrival: at now.
		for next < n && winLen+infLen < depth {
			if nextArrival > now {
				// Arrival-limited: a slot is free but the next request has
				// not arrived.
				limited = next
				break
			}
			e.stats.StallCycles += now - nextArrival
			line, m := lines[next], metas[next]
			if flat != nil {
				// Resolve the flat-hybrid tier remap once, so scheduling
				// and service work on the effective bank.
				m = m&^(metaBankMask<<metaBankShift) | flat[metaBank(m)<<1|e.flatTier(line)]
			}
			win[(winHead+winLen)&mask] = winReq{enq: now, line: line, meta: m}
			winLen++
			next++
			if next < n {
				nextArrival = uint64(cycles[next] * ratio)
			}
		}
		if winLen == 0 {
			// Idle or blocked (the loop condition leaves next < n): jump to
			// whichever comes first — the next arrival (if a slot is free)
			// or the earliest completion.
			wake := inflight[infHead]
			if infLen < depth && (infLen == 0 || nextArrival < wake) {
				wake = nextArrival
			}
			if wake > now {
				now = wake
			} else {
				now++
			}
			continue
		}
		i := 0
		if e.frfcfs && winLen > 1 {
			i = e.schedule(win, winHead, winLen, mask, now)
		}
		req := win[(winHead+i)&mask]
		if i == 0 {
			winHead = (winHead + 1) & mask
		} else {
			winHead = remove(win, winHead, winLen, i, mask)
			reordered = true
		}
		winLen--

		var devLat uint64
		done, devLat, busFree = e.service(req, now, busFree)
		inflight[(infHead+infLen)&mask] = done
		infLen++
		e.stats.SumDeviceLatency += devLat
		totalLat := done - req.enq
		e.stats.SumTotalLatency += totalLat
		e.stats.LatencyHist[bits.Len64(totalLat)]++
		now++ // command-issue slot; banks proceed in parallel
	}
	*rs = runState{now: now, busFree: busFree, done: done, next: next,
		limited: limited, reordered: reordered}
	e.stats.Requests = uint64(n)
	e.stats.LastCompletion = done // completions are non-decreasing
	return false
}

// remove takes the i-th oldest of the n requests in the window ring
// starting at head, shifting whichever side of it is shorter, and returns
// the ring's new head.
func remove(win []winReq, head, n, i, mask int) int {
	if i < n-1-i {
		// Closer to the head: shift the prefix toward the tail.
		for j := i; j > 0; j-- {
			win[(head+j)&mask] = win[(head+j-1)&mask]
		}
		return (head + 1) & mask
	}
	// Closer to the tail: shift the suffix toward the head.
	for j := i; j < n-1; j++ {
		win[(head+j)&mask] = win[(head+j+1)&mask]
	}
	return head
}

// schedule picks the FR-FCFS choice among the n requests in the window ring
// starting at head: the oldest row-buffer hit (cache residency for
// hybrid-cache), falling back to the oldest request.
func (e *channelEngine) schedule(win []winReq, head, n, mask int, now uint64) int {
	for i := 0; i < n; i++ {
		r := &win[(head+i)&mask]
		if e.cache != nil {
			if e.cache.peek(r.line) {
				return i
			}
		} else {
			b := &e.st.banks[metaBank(r.meta)]
			if b.openRow == int64(metaRow(r.meta)) && b.readyAt <= now {
				return i
			}
		}
	}
	return 0
}

// service executes one request issued at now with the data bus free from
// busFree. It returns the request's completion cycle, its device latency
// (the access time excluding queueing, which NVMain reports as "average
// latency"; the queue-inclusive time is completion − arrival), and the new
// bus-free cycle.
//
// Completions are non-decreasing in issue order, which is what lets run keep
// them in a FIFO. A tier access or a cache hit completes when its data burst
// ends and returns that cycle as the new busFree; the next request's burst
// starts no earlier, so it completes at least one burst later. A cache miss
// completes one front-tier burst after its fill and returns the fill (or,
// after a dirty writeback, that later burst's end) as busFree; a following
// hit still completes one front burst past busFree, and a following miss a
// fill plus a front burst past it. So each completion is ≥ the one before,
// equal only for a cache hit right after a miss.
func (e *channelEngine) service(r winReq, now, busFree uint64) (done, devLat, busFreeOut uint64) {
	row := metaRow(r.meta)
	bank := metaBank(r.meta)
	write := metaIsWrite(r.meta)
	if e.flatHalf > 0 {
		// Flat hybrid: the bank was tier-remapped at admission, so the tier
		// is implied by which half it landed in.
		if bank < e.flatHalf {
			done, devLat = e.serviceTier(bank, row, write, now, busFree, e.front, false)
		} else {
			done, devLat = e.serviceTier(bank, row, write, now, busFree, e.back, true)
		}
		return done, devLat, done
	}
	if e.cache == nil {
		done, devLat = e.serviceTier(bank, row, write, now, busFree, e.back, true)
		return done, devLat, done
	}
	// Hybrid: consult the DRAM cache first.
	hit, writeback, victim := e.cache.access(r.line, write)
	if hit {
		e.stats.CacheHits++
		done = max(now+e.front.hitCas, busFree) + e.front.burst
		if write {
			e.stats.EnergyNJ += e.front.eWrite
		} else {
			e.stats.EnergyNJ += e.front.eRead
		}
		// The critical word is forwarded as soon as the column access
		// completes; the burst tail overlaps with the consumer.
		return done, e.front.hitCas, done
	}
	e.stats.CacheMisses++
	// Miss: fetch the line from the NVM backing store (write-allocate).
	fill, devLat := e.serviceTier(bank, row, false, now, busFree, e.back, true)
	// Install into the cache: one DRAM-side burst after the fill.
	done = fill + e.front.burst
	devLat += e.front.burst
	if write {
		e.stats.EnergyNJ += e.front.eWrite
	} else {
		e.stats.EnergyNJ += e.front.eRead
	}
	busFree = fill
	// Dirty victim: write it back to NVM. The writeback occupies the backend
	// after the fill but does not delay this request's completion.
	if writeback {
		e.stats.CacheWritebacks++
		vloc := e.mapper.Map(victim * e.lineBytes)
		busFree, _ = e.serviceTier(e.mapper.BankIndex(vloc), vloc.Row, true, done, busFree, e.back, true)
	}
	return done, devLat, busFree
}

// serviceTier performs a device access on one tier's bank bi starting no
// earlier than at, with the data bus free from busFree, using the tier's
// folded timing table; trackEndurance enables hot-row write accounting (NVM
// tiers). It returns the completion cycle, which is also the new bus-free
// cycle, and the device latency (row handling + column access + burst,
// excluding data-bus queueing).
func (e *channelEngine) serviceTier(bi, row int, write bool, at, busFree uint64, t *timingTable, trackEndurance bool) (done, devLat uint64) {
	b := &e.st.banks[bi]
	start := max(at, b.readyAt)
	// Event-level refresh: when enabled, catch up on overdue refreshes
	// before the access; each blocks the bank for tRFC and closes its row.
	if t.trefi > 0 {
		if b.nextRefreshAt == 0 {
			b.nextRefreshAt = t.trefi
		}
		for start >= b.nextRefreshAt {
			start = max(start, b.nextRefreshAt+t.trfc)
			b.nextRefreshAt += t.trefi
			b.openRow = -1
			e.stats.Refreshes++
			e.stats.EnergyNJ += t.eRefresh
		}
	}
	var casDone uint64
	if e.closed {
		// The row was auto-precharged after the previous access; every
		// access activates afresh.
		e.stats.RowMisses++
		b.lastActivate = start
		casDone = start + t.actCas
		devLat = t.devMiss
		e.stats.EnergyNJ += t.eActivate
	} else if b.openRow == int64(row) {
		e.stats.RowHits++
		casDone = start + t.hitCas
		devLat = t.devHit
	} else {
		e.stats.RowMisses++
		if b.openRow >= 0 {
			// Precharge the open row; DRAM must honor tRAS (data restore)
			// since the last activate — NVM has tRAS = 0.
			prechargeOK := max(start, b.lastActivate+t.tras)
			start = prechargeOK + t.trp
		}
		b.lastActivate = start
		casDone = start + t.actCas
		devLat = t.devMiss
		b.openRow = int64(row)
		e.stats.EnergyNJ += t.eActivate
	}
	dataDone := max(casDone, busFree) + t.burst
	var prechargeTail uint64
	if e.closed {
		// Auto-precharge after the burst, honoring tRAS restore.
		prechargeTail = max(dataDone, b.lastActivate+t.tras) - dataDone + t.trp
		b.openRow = -1
	}
	if write {
		b.readyAt = dataDone + t.wrRec + prechargeTail
		e.stats.Writes++
		e.stats.EnergyNJ += t.eWrite
		if trackEndurance {
			idx := bi*e.rows + row
			e.st.rowWrites[idx]++
			if e.st.rowWrites[idx] > e.stats.MaxRowWrites {
				e.stats.MaxRowWrites = e.st.rowWrites[idx]
			}
		}
	} else {
		b.readyAt = dataDone + prechargeTail
		e.stats.Reads++
		e.stats.EnergyNJ += t.eRead
	}
	e.st.perBank[bi] += e.lineBytes
	return dataDone, devLat
}

// snapshot copies the run's statistics out of pooled storage. PerBankBytes
// is cloned because the Result retains it past the engine state's release.
// Every activate is a row miss and every access moves one line through its
// bank, so Activates and BytesTransferred are derived here rather than
// counted per request.
func (e *channelEngine) snapshot(dst *ChannelStats, hitRate *float64) {
	e.stats.PerBankBytes = append([]uint64(nil), e.st.perBank...)
	e.stats.Activates = e.stats.RowMisses
	for _, b := range e.stats.PerBankBytes {
		e.stats.BytesTransferred += b
	}
	*dst = e.stats
	if e.cache != nil {
		*hitRate = e.cache.hitRate()
	}
}
