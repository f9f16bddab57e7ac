package memsim

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"graphdse/internal/trace"
)

// suffixTrace draws a trace that saturates a small controller queue for
// long stretches: a start offset, then dense bursts, moderate stretches and
// occasional idle gaps, over addresses that revisit a few hot rows so row
// hits, cache hits and FR-FCFS reorders all occur.
func suffixTrace(rng *rand.Rand, n int) []trace.Event {
	events := make([]trace.Event, n)
	cycle := uint64(rng.Intn(3)) * uint64(rng.Intn(4000))
	hot := make([]uint64, 1+rng.Intn(6))
	for i := range hot {
		hot[i] = uint64(rng.Int63n(1 << 24))
	}
	mode := 0
	for i := range events {
		if rng.Intn(64) == 0 {
			mode = rng.Intn(4)
		}
		switch mode {
		case 0: // dense burst
			cycle += uint64(rng.Intn(3))
		case 1: // moderate
			cycle += uint64(rng.Intn(24))
		case 2: // mostly dense, rare gap
			if rng.Intn(200) == 0 {
				cycle += uint64(200 + rng.Intn(3000))
			}
		default: // sparse
			cycle += uint64(40 + rng.Intn(400))
		}
		addr := uint64(rng.Int63n(1 << 26))
		if rng.Intn(2) == 0 {
			addr = hot[rng.Intn(len(hot))] + uint64(rng.Intn(8))*64
		}
		op := trace.Read
		if rng.Intn(3) == 0 {
			op = trace.Write
		}
		events[i] = trace.Event{Cycle: cycle, Op: op, Addr: addr}
	}
	return events
}

// suffixConfig draws a configuration from bits: device and hybrid mode,
// scheduler, page policy, refresh, queue depth 1–33, and hybrid caches
// whose set counts are often not powers of two.
func suffixConfig(rng *rand.Rand) Config {
	ctrl := []float64{400, 666, 1250, 1600}[rng.Intn(4)]
	channels := 1 + rng.Intn(2)
	trcd := NVMTRCDSweep(ctrl)[rng.Intn(6)]
	var cfg Config
	switch rng.Intn(4) {
	case 0:
		cfg = NewDRAMConfig(channels, 2000, ctrl)
	case 1:
		cfg = NewNVMConfig(channels, 2000, ctrl, trcd)
	case 2:
		cfg = NewHybridConfig(channels, 2000, ctrl, trcd, 0.25)
		cfg.CacheWays = 1 + rng.Intn(4)
		cfg.CacheLines = cfg.CacheWays * (3 + rng.Intn(300))
	default:
		cfg = NewHybridConfig(channels, 2000, ctrl, trcd, []float64{0.1, 0.25, 0.5, 0.7}[rng.Intn(4)])
		cfg.HybridMode = HybridFlat
	}
	if rng.Intn(2) == 0 {
		cfg.Scheduler = FCFS
	}
	if rng.Intn(3) == 0 {
		cfg.Policy = ClosedPage
	}
	cfg.QueueDepth = 1 + rng.Intn(33)
	if rng.Intn(4) == 0 {
		// tRFC stays below both tiers' tREFI: the engine's refresh catch-up
		// never ends otherwise, and Validate does not reject it.
		cfg.Timing.TREFI = uint64(150 + rng.Intn(3000))
		cfg.Timing.TRFC = uint64(10 + rng.Intn(60))
		cfg.CacheTiming.TREFI = cfg.Timing.TREFI / 2
		cfg.CacheTiming.TRFC = cfg.Timing.TRFC
	}
	return cfg
}

// replayFresh is the reference: a replay that shares nothing with any other
// replay (a freshly prepared trace has an empty partition cache and an empty
// suffix memo).
func replayFresh(t testing.TB, cfg Config, events []trace.Event) string {
	t.Helper()
	res, err := replayOnce(cfg, events)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%#v", res)
}

// suffixCase replays one random case on one shared PreparedTrace: a trace
// and a configuration drawn from seed, at 2–4 random CPU clocks in turn.
// Each result must equal a replay that shares nothing, derived suffixes,
// float bits and per-channel statistics included.
func suffixCase(t *testing.T, seed int64) (SuffixMemoStats, Config) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	events := suffixTrace(rng, 100+rng.Intn(800))
	cfg := suffixConfig(rng)
	pt, err := Prepare(events)
	if err != nil {
		t.Fatal(err)
	}
	for k := 2 + rng.Intn(3); k > 0; k-- {
		cfg.CPUFreqMHz = float64(100 + rng.Intn(8000))
		res, err := RunPreparedTrace(cfg, pt)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := fmt.Sprintf("%#v", res), replayFresh(t, cfg, events); got != want {
			t.Fatalf("seed %d (%v %v, depth %d, %v, %v, tREFI %d) at cpu %v: shared replay differs from a fresh one:\n got %s\nwant %s",
				seed, cfg.Type, cfg.HybridMode, cfg.QueueDepth, cfg.Scheduler, cfg.Policy, cfg.Timing.TREFI, cfg.CPUFreqMHz, got, want)
		}
	}
	return pt.SuffixMemoStats(), cfg
}

// suffixGuardSeeds are cases, found by a long random search, where a
// derivation guard that rarely decides the outcome does. Seed 2727 derives
// a wrong result without the checkpoint energy comparison, seed 51780
// without the hybrid-cache reorder guard, and seed 240758 if the tRAS
// precharge bound is clamped as lastActivate alone. They depend on
// suffixTrace, suffixConfig and suffixCase drawing exactly as they do; a
// change to any of them needs a new search.
var suffixGuardSeeds = []int64{2727, 51780, 240758}

// TestSuffixShareDifferential runs suffixCase over the seeds 0..n−1 and the
// guard seeds. It also requires that the memo derived, fell back, and kept
// refresh-enabled configurations with Δ ≠ 0 from deriving.
func TestSuffixShareDifferential(t *testing.T) {
	seeds := int64(800)
	if testing.Short() {
		seeds = 200
	}
	var derived, fallbacks, refreshDerived, refreshFallbacks uint64
	for seed := int64(0); seed < seeds; seed++ {
		st, cfg := suffixCase(t, seed)
		derived += st.Derived
		fallbacks += st.Fallbacks
		if cfg.Timing.TREFI > 0 {
			refreshDerived += st.Derived
			refreshFallbacks += st.Fallbacks
		}
	}
	for _, seed := range suffixGuardSeeds {
		suffixCase(t, seed)
	}
	t.Logf("derived %d, fallbacks %d (refresh: %d derived, %d fallbacks)", derived, fallbacks, refreshDerived, refreshFallbacks)
	if derived == 0 || fallbacks == 0 || refreshFallbacks == 0 {
		t.Fatalf("derived %d, fallbacks %d, refresh fallbacks %d: the cases no longer exercise both outcomes", derived, fallbacks, refreshFallbacks)
	}
}

// TestSuffixShareEqualRatioNeverDerives: rerunning one configuration (a
// replay benchmark, a probe) must replay in full every time, and a larger
// ratio than every reference's never derives either.
func TestSuffixShareEqualRatioNeverDerives(t *testing.T) {
	events := make([]trace.Event, 4000)
	for i := range events {
		events[i] = trace.Event{Cycle: uint64(i / 2), Op: trace.Read, Addr: uint64(i*7919) << 6}
	}
	pt, err := Prepare(events)
	if err != nil {
		t.Fatal(err)
	}
	cfg := NewNVMConfig(2, 2000, 400, 40)
	for i := 0; i < 3; i++ {
		if _, err := RunPreparedTrace(cfg, pt); err != nil {
			t.Fatal(err)
		}
	}
	cfg.CPUFreqMHz = 1000 // a larger ratio
	if _, err := RunPreparedTrace(cfg, pt); err != nil {
		t.Fatal(err)
	}
	if st := pt.SuffixMemoStats(); st.Derived != 0 || st.Fallbacks != 0 || st.Entries == 0 {
		t.Fatalf("memo %+v: want entries and no derivation attempts", st)
	}
}

// TestSuffixShareAnyReferenceIsExact: exactness rests on derive's own
// checks, not on the memo's ratio policy. Each channel here is derived from
// a reference at another ratio, larger or smaller, that the memo would
// never hand it; every outcome must equal a full replay. With a reference
// at a smaller ratio, requests arrive later than the reference admitted
// them, so a shifted suffix is only sound where the slack bound holds.
func TestSuffixShareAnyReferenceIsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var derived, refused, derivedUp int
	for c := 0; c < 300; c++ {
		events := suffixTrace(rng, 300+rng.Intn(1500))
		cfg := suffixConfig(rng)
		pt, err := Prepare(events)
		if err != nil {
			t.Fatal(err)
		}
		cpus := rng.Perm(7)
		refCfg := cfg
		refCfg.CPUFreqMHz = float64(1000 + 500*cpus[0])
		cfg.CPUFreqMHz = float64(1000 + 500*cpus[1])
		refSim, err := newSimulator(refCfg)
		if err != nil {
			t.Fatal(err)
		}
		sim, err := newSimulator(cfg)
		if err != nil {
			t.Fatal(err)
		}
		refRatio := refCfg.CtrlFreqMHz / refCfg.CPUFreqMHz
		ratio := cfg.CtrlFreqMHz / cfg.CPUFreqMHz
		part := pt.partitionFor(sim.mapper)
		for ch := range part.chans {
			cp := &part.chans[ch]
			replay := func(s *simulator, ratio float64, ref *suffixEntry) (st ChannelStats, hit float64, rs runState, ok bool) {
				state := s.acquireState()
				defer releaseEngineState(state)
				e := newChannelEngine(s, state)
				rs, _, ok = e.replayFrom(cp, ratio, ref, &st, &hit)
				return st, hit, rs, ok
			}
			end, _, fin, _ := replay(refSim, refRatio, nil)
			state := refSim.acquireState()
			ref := refSim.captureSuffix(state, cp, refRatio, &fin, &end)
			releaseEngineState(state)
			if ref == nil {
				continue
			}
			got, gotHit, _, ok := replay(sim, ratio, ref)
			want, wantHit, _, _ := replay(sim, ratio, nil)
			if g, w := fmt.Sprintf("%#v %v", got, gotHit), fmt.Sprintf("%#v %v", want, wantHit); g != w {
				t.Fatalf("case %d ch %d (%v, depth %d, tREFI %d), ratio %v from %v (derived %v):\n got %s\nwant %s",
					c, ch, cfg.Type, cfg.QueueDepth, cfg.Timing.TREFI, ratio, refRatio, ok, g, w)
			}
			switch {
			case !ok:
				refused++
			case ratio > refRatio:
				derivedUp++
				fallthrough
			default:
				derived++
			}
		}
	}
	t.Logf("derived %d (%d from a smaller ratio), refused %d", derived, derivedUp, refused)
	if derivedUp == 0 || refused == 0 {
		t.Fatalf("derived %d (%d from a smaller ratio), refused %d: the cases no longer exercise both outcomes", derived, derivedUp, refused)
	}
}

// fuzzSuffixTrace decodes fuzz bytes into a trace: 6 bytes per event, a
// 16-bit cycle increment (top bit set: a step back in time, so unsorted
// traces are covered) and a 32-bit address whose low bit marks a write.
func fuzzSuffixTrace(data []byte) []trace.Event {
	var events []trace.Event
	var cycle uint64
	for len(data) >= 6 && len(events) < 1024 {
		step := uint64(binary.LittleEndian.Uint16(data))
		if step&0x8000 != 0 {
			cycle -= min(cycle, (step&0x7fff)*8)
		} else {
			cycle += step >> 6
		}
		w := binary.LittleEndian.Uint32(data[2:])
		op := trace.Read
		if w&1 != 0 {
			op = trace.Write
		}
		events = append(events, trace.Event{Cycle: cycle, Op: op, Addr: uint64(w) << 5})
		data = data[6:]
	}
	return events
}

// FuzzSuffixShare: a replay that may derive its suffix from a sibling at
// another clock ratio must equal a full replay.
func FuzzSuffixShare(f *testing.F) {
	seed := func(seed int64, n int) []byte {
		rng := rand.New(rand.NewSource(seed))
		b := make([]byte, 6*n)
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint16(b[6*i:], uint16(rng.Intn(400)))
			binary.LittleEndian.PutUint32(b[6*i+2:], uint32(rng.Intn(1<<12))*97)
		}
		return b
	}
	f.Add(seed(1, 300), uint16(2000), uint16(3000), uint32(0))
	f.Add(seed(2, 400), uint16(6500), uint16(1250), uint32(0x1234))
	f.Add(seed(3, 200), uint16(1000), uint16(5000), uint32(0xfedcba))
	f.Add(seed(4, 500), uint16(3000), uint16(2000), uint32(0x2f0f3))
	f.Fuzz(func(t *testing.T, data []byte, cpuA, cpuB uint16, cfgBits uint32) {
		events := fuzzSuffixTrace(data)
		if len(events) == 0 {
			return
		}
		cfg := suffixConfig(rand.New(rand.NewSource(int64(cfgBits))))
		pt, err := Prepare(events)
		if err != nil {
			t.Fatal(err)
		}
		for _, cpu := range []uint16{cpuA, cpuB} {
			cfg.CPUFreqMHz = float64(max(cpu, 100))
			res, err := RunPreparedTrace(cfg, pt)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := fmt.Sprintf("%#v", res), replayFresh(t, cfg, events); got != want {
				t.Fatalf("cpu %d (memo %+v): shared replay differs from a fresh one:\n got %s\nwant %s",
					cpu, pt.SuffixMemoStats(), got, want)
			}
		}
	})
}
