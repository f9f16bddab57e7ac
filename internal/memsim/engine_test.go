package memsim

import (
	"math"
	"math/rand"
	"testing"
)

// TestServiceCompletionsNonDecreasing checks the proof obligation behind the
// in-flight FIFO: completions returned by service are non-decreasing in
// issue order, whatever the request mix, as long as the issue cycle does
// not go backwards. It drives service directly with random requests over
// every device mode, page policy and refresh setting.
func TestServiceCompletionsNonDecreasing(t *testing.T) {
	flat := func() Config {
		c := NewHybridConfig(2, 2000, 666, 67, 0.25)
		c.HybridMode = HybridFlat
		return c
	}
	modes := []struct {
		name string
		mk   func() Config
	}{
		{"dram", func() Config { return NewDRAMConfig(2, 2000, 666) }},
		{"nvm", func() Config { return NewNVMConfig(2, 2000, 666, 67) }},
		{"hybrid-cache", func() Config {
			c := NewHybridConfig(2, 2000, 666, 67, 0.25)
			c.CacheLines = 64 // small, so misses evict dirty victims
			return c
		}},
		{"hybrid-flat", flat},
	}
	for _, mode := range modes {
		for _, policy := range []PagePolicy{OpenPage, ClosedPage} {
			for _, refresh := range []bool{false, true} {
				cfg := mode.mk()
				cfg.Policy = policy
				if refresh {
					cfg.Timing.TREFI, cfg.Timing.TRFC = 1560, 44
					cfg.CacheTiming.TREFI, cfg.CacheTiming.TRFC = 1560, 44
				}
				name := mode.name + "/" + policy.String()
				if refresh {
					name += "/refresh"
				}
				t.Run(name, func(t *testing.T) { checkServiceMonotone(t, cfg) })
			}
		}
	}
}

func checkServiceMonotone(t *testing.T, cfg Config) {
	s, err := newSimulator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := &s.cfg
	nb := s.mapper.BanksPerChannel()
	st := s.acquireState()
	defer releaseEngineState(st)
	e := newChannelEngine(s, st)
	rng := rand.New(rand.NewSource(int64(nb) + 7))
	var now, busFree, prev uint64
	for i := 0; i < 50000; i++ {
		switch r := rng.Intn(100); {
		case r < 60:
		case r < 95:
			now += uint64(rng.Intn(8))
		default:
			now += uint64(rng.Intn(5000)) // idle gap
		}
		line := uint64(rng.Intn(4096))
		req := winReq{enq: now, line: line, meta: packMeta(rng.Intn(c.RowsPerBank), rng.Intn(nb), rng.Intn(3) == 0)}
		done, _, bus := e.service(req, now, busFree)
		if done < prev {
			t.Fatalf("request %d completed at %d, before the previous completion %d", i, done, prev)
		}
		prev, busFree = done, bus
	}
	if e.cache != nil && e.stats.CacheWritebacks == 0 {
		t.Fatal("no hybrid writebacks exercised")
	}
}

// TestCacheSetIndexMatchesMod checks the fastmod set index against the
// division it replaces for every set count up to 5000.
func TestCacheSetIndexMatchesMod(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	edges := []uint64{0, 1, 1<<32 - 1, 1 << 32, 1<<32 + 1, 1<<40 + 12345, math.MaxUint64}
	var c dramCache
	for sets := 1; sets <= 5000; sets++ {
		c.init(sets, 1)
		for k := 0; k < 64+len(edges); k++ {
			line := uint64(rng.Uint32())
			if k < len(edges) {
				line = edges[k]
			}
			if got, want := c.setIndex(line), line%uint64(sets); got != want {
				t.Fatalf("sets %d line %d: set index %d, want %d", sets, line, got, want)
			}
		}
	}
	// Set counts past 32 bits always take the division.
	big := dramCache{sets: 1<<32 + 7}
	for _, line := range edges {
		if got, want := big.setIndex(line), line%uint64(big.sets); got != want {
			t.Fatalf("sets %d line %d: set index %d, want %d", big.sets, line, got, want)
		}
	}
}

// TestFlatTierMatchesFloatCut checks the integer flat-hybrid tier cut
// against the float comparison float64(h%1024) < DRAMFraction*1024 for
// every hash residue h, on a fine DRAMFraction grid that includes every
// exact k/1024 and its float neighbours.
func TestFlatTierMatchesFloatCut(t *testing.T) {
	const k = 0x9E3779B97F4A7C15
	// k is odd, so it has an inverse mod 2^64 (Newton's iteration doubles
	// the correct low bits each step); lineFor(h) hashes to h exactly.
	inv := uint64(k)
	for i := 0; i < 6; i++ {
		inv *= 2 - k*inv
	}
	lineFor := func(h uint64) uint64 { return h << 40 * inv }
	var fracs []float64
	for i := 1; i < 10000; i++ {
		fracs = append(fracs, float64(i)/10000)
	}
	for j := 1; j < 1024; j++ {
		f := float64(j) / 1024
		fracs = append(fracs, f, math.Nextafter(f, 0), math.Nextafter(f, 1))
	}
	for _, f := range fracs {
		cfg := NewHybridConfig(2, 2000, 666, 67, f)
		cfg.HybridMode = HybridFlat
		s, err := newSimulator(cfg)
		if err != nil {
			t.Fatal(err)
		}
		e := newChannelEngine(s, &engineState{})
		for h := uint64(0); h < 1024; h++ {
			want := 1
			if float64(h) < f*1024 {
				want = 0
			}
			if got := e.flatTier(lineFor(h)); got != want {
				t.Fatalf("DRAMFraction %v, h %d: tier %d, want %d", f, h, got, want)
			}
		}
	}
}
