package memsim

import (
	"strconv"
	"testing"

	"graphdse/internal/trace"
)

func benchTrace(b *testing.B, n int) []trace.Event {
	b.Helper()
	return syntheticTraceB(n, 99)
}

// syntheticTraceB mirrors syntheticTrace for benchmarks (testing.B).
func syntheticTraceB(n int, seed int64) []trace.Event {
	events := make([]trace.Event, 0, n)
	cycle := uint64(1)
	addr := uint64(0)
	for len(events) < n {
		cycle += uint64(7 + (addr % 13))
		addr = (addr*2654435761 + 12345) % (1 << 23)
		op := trace.Read
		if addr%5 == 0 {
			op = trace.Write
		}
		events = append(events, trace.Event{Cycle: cycle, Op: op, Addr: addr})
	}
	return events
}

// benchConfigs is the per-type configuration set shared by the replay
// benchmarks; every entry uses the same mapping geometry, so the prepared
// trace's partition cache serves all four from one partitioning pass.
func benchConfigs() (names []string, cases map[string]Config) {
	flat := NewHybridConfig(2, 2000, 666, 67, 0.25)
	flat.HybridMode = HybridFlat
	return []string{"DRAM", "NVM", "HybridCache", "HybridFlat"}, map[string]Config{
		"DRAM":        NewDRAMConfig(2, 2000, 666),
		"NVM":         NewNVMConfig(2, 2000, 666, 67),
		"HybridCache": NewHybridConfig(2, 2000, 666, 67, 0.25),
		"HybridFlat":  flat,
	}
}

// BenchmarkRunPrepared is the sweep hot path: one prepared trace replayed
// repeatedly against a fixed configuration — exactly what each design point
// of a sweep costs after Prepare. This is the PR 7 acceptance benchmark
// (≥2× over the pre-refactor engine, fewer allocs/op).
func BenchmarkRunPrepared(b *testing.B) {
	events := benchTrace(b, 100000)
	pt, err := Prepare(events)
	if err != nil {
		b.Fatal(err)
	}
	names, cases := benchConfigs()
	for _, name := range names {
		cfg := cases[name]
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(len(events)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := RunPreparedTrace(cfg, pt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkReplayByType(b *testing.B) {
	events := benchTrace(b, 100000)
	flat := NewHybridConfig(2, 2000, 666, 67, 0.25)
	flat.HybridMode = HybridFlat
	cases := map[string]Config{
		"DRAM":        NewDRAMConfig(2, 2000, 666),
		"NVM":         NewNVMConfig(2, 2000, 666, 67),
		"HybridCache": NewHybridConfig(2, 2000, 666, 67, 0.25),
		"HybridFlat":  flat,
	}
	for _, name := range []string{"DRAM", "NVM", "HybridCache", "HybridFlat"} {
		cfg := cases[name]
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(len(events)))
			for i := 0; i < b.N; i++ {
				if _, err := replayOnce(cfg, events); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkReplayByChannels(b *testing.B) {
	events := benchTrace(b, 100000)
	for _, ch := range []int{1, 2, 4, 8} {
		cfg := NewDRAMConfig(ch, 2000, 666)
		b.Run(strconv.Itoa(ch)+"ch", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := replayOnce(cfg, events); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkAddressMap(b *testing.B) {
	cfg := NewDRAMConfig(4, 2000, 666)
	if err := cfg.Validate(); err != nil {
		b.Fatal(err)
	}
	m := NewAddressMapper(&cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Map(uint64(i) * 64)
	}
}

// The phase benchmarks below split a replay into its three sequential
// stages so regressions localize: routing the trace to channels
// (partition), simulating the channels (replay), and folding channel
// statistics into a Result (assemble).

// BenchmarkPartitionPhase measures first-time trace partitioning — the cost
// a sweep pays once per mapping geometry. Serial pins the single-threaded
// mapper loop; Build exercises buildPartition's chunk-parallel path when
// GOMAXPROCS permits (identical output, concatenated in chunk order).
func BenchmarkPartitionPhase(b *testing.B) {
	events := benchTrace(b, 500000)
	pt, err := Prepare(events)
	if err != nil {
		b.Fatal(err)
	}
	cfg := NewDRAMConfig(2, 2000, 666)
	if err := cfg.Validate(); err != nil {
		b.Fatal(err)
	}
	m := NewAddressMapper(&cfg)
	b.Run("Serial", func(b *testing.B) {
		b.SetBytes(int64(pt.Len()))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buildPartitionSerial(m, pt.cycles, pt.addrs, pt.writes)
		}
	})
	b.Run("Build", func(b *testing.B) {
		b.SetBytes(int64(pt.Len()))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buildPartition(m, pt.cycles, pt.addrs, pt.writes)
		}
	})
}

// BenchmarkReplayPhase measures pure channel simulation: the partition is
// already cached (one warm-up replay populates it), so each iteration is the
// steady-state per-design-point cost of a sweep.
func BenchmarkReplayPhase(b *testing.B) {
	events := benchTrace(b, 100000)
	pt, err := Prepare(events)
	if err != nil {
		b.Fatal(err)
	}
	cfg := NewDRAMConfig(2, 2000, 666)
	if _, err := RunPreparedTrace(cfg, pt); err != nil { // warm the partition cache
		b.Fatal(err)
	}
	b.SetBytes(int64(len(events)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunPreparedTrace(cfg, pt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAssemblePhase measures result assembly alone: folding per-channel
// statistics into the aggregate Result the sweeps consume.
func BenchmarkAssemblePhase(b *testing.B) {
	events := benchTrace(b, 100000)
	pt, err := Prepare(events)
	if err != nil {
		b.Fatal(err)
	}
	sim, err := newSimulator(NewDRAMConfig(4, 2000, 666))
	if err != nil {
		b.Fatal(err)
	}
	res, err := sim.runPrepared(pt)
	if err != nil {
		b.Fatal(err)
	}
	hitRates := make([]float64, len(res.Channels))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.assemble(res.Channels, hitRates)
	}
}
