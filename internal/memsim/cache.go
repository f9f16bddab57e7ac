package memsim

import "math/bits"

// dramCache is the set-associative DRAM cache fronting the NVM backing
// store in hybrid mode (NVMain's DRAM-cache hybrid organization). Tags are
// tracked exactly; data motion is modeled through the timing engine. The
// ways of set s occupy lines[s*ways : (s+1)*ways] — one flat allocation so
// a pooled engine can reuse the backing array across runs.
type dramCache struct {
	ways    int
	sets    int
	recip   uint64      // ⌈2^64 / sets⌉ mod 2^64, the fastmod reciprocal
	lines   []cacheLine // set-major: sets × ways
	tick    uint64      // LRU clock
	hits    uint64
	misses  uint64
	evicted uint64
}

type cacheLine struct {
	tag     uint64
	valid   bool
	dirty   bool
	lastUse uint64
}

func newDRAMCache(lines, ways int) *dramCache {
	c := &dramCache{}
	c.init(lines, ways)
	return c
}

// init (re)shapes the cache for a geometry, reusing the backing array when
// it is large enough, and resets all state.
func (c *dramCache) init(lines, ways int) {
	sets := lines / ways
	if sets < 1 {
		sets = 1
	}
	c.ways = ways
	c.sets = sets
	c.recip = ^uint64(0)/uint64(sets) + 1
	n := sets * ways
	if cap(c.lines) < n {
		c.lines = make([]cacheLine, n)
	} else {
		c.lines = c.lines[:n]
		clear(c.lines)
	}
	c.tick = 0
	c.hits = 0
	c.misses = 0
	c.evicted = 0
}

// set returns the ways of the set a line maps to.
func (c *dramCache) set(line uint64) []cacheLine {
	s := c.setIndex(line)
	return c.lines[s*uint64(c.ways) : (s+1)*uint64(c.ways)]
}

// setIndex is line mod sets. When both fit in 32 bits it multiplies by the
// precomputed reciprocal instead of dividing (Lemire, Kaser and Kurz,
// "Faster Remainder by Direct Computation", 2019: exact for every 32-bit
// dividend and divisor).
func (c *dramCache) setIndex(line uint64) uint64 {
	d := uint64(c.sets)
	if line|d < 1<<32 {
		s, _ := bits.Mul64(c.recip*line, d)
		return s
	}
	return line % d
}

// access looks up a line. On a hit it updates LRU and dirtiness and returns
// hit=true. On a miss it installs the line (write-allocate) and returns the
// evicted dirty victim's line index when a writeback is needed.
func (c *dramCache) access(line uint64, write bool) (hit bool, writeback bool, victimLine uint64) {
	c.tick++
	set := c.set(line)
	for i := range set {
		if set[i].valid && set[i].tag == line {
			set[i].lastUse = c.tick
			if write {
				set[i].dirty = true
			}
			c.hits++
			return true, false, 0
		}
	}
	c.misses++
	// Choose victim: first invalid way, else LRU.
	victim := 0
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
		if set[i].lastUse < set[victim].lastUse {
			victim = i
		}
	}
	v := set[victim]
	if v.valid && v.dirty {
		writeback = true
		victimLine = v.tag
		c.evicted++
	}
	set[victim] = cacheLine{tag: line, valid: true, dirty: write, lastUse: c.tick}
	return false, writeback, victimLine
}

// peek reports whether a line is resident without touching LRU state or the
// hit/miss counters — the scheduler's residency probe.
func (c *dramCache) peek(line uint64) bool {
	set := c.set(line)
	for i := range set {
		if set[i].valid && set[i].tag == line {
			return true
		}
	}
	return false
}

func (c *dramCache) hitRate() float64 {
	total := c.hits + c.misses
	if total == 0 {
		return 0
	}
	return float64(c.hits) / float64(total)
}
