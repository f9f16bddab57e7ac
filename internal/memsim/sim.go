package memsim

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"graphdse/internal/trace"
)

// Simulator replays memory traces against one configuration. The engine
// itself lives in engine.go (per-channel replay over pooled state),
// partition.go (the SoA per-channel trace form) and timing.go (folded
// per-tier timing tables); this file holds the public entry points and
// result assembly.
type Simulator struct {
	cfg    Config
	mapper *AddressMapper
	back   timingTable // backing-store tier (the only tier for DRAM/NVM)
	front  timingTable // DRAM tier of a hybrid (cache front or flat DRAM half)
}

// ErrEmptyTrace is returned when Run is given no events.
var ErrEmptyTrace = errors.New("memsim: empty trace")

// New validates the configuration and builds a simulator.
func New(cfg Config) (*Simulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Simulator{cfg: cfg}
	s.mapper = NewAddressMapper(&s.cfg)
	s.back = buildTimingTable(&s.cfg.Timing, &s.cfg.Energy)
	s.front = buildTimingTable(&s.cfg.CacheTiming, &s.cfg.CacheEnergy)
	return s, nil
}

// Config returns the validated configuration.
func (s *Simulator) Config() Config { return s.cfg }

// Run replays events (CPU-cycle timestamps, ascending) and returns the
// aggregated metrics. Channels are independent and simulated in parallel.
// For sweeps replaying the same trace against many configurations, prefer
// Prepare + RunPrepared, which validates and decodes the trace once and
// shares partitions across points of equal mapping geometry; for traces too
// large to hold in memory, use RunSource.
func (s *Simulator) Run(events []trace.Event) (*Result, error) {
	if len(events) == 0 {
		return nil, ErrEmptyTrace
	}
	part := newTracePartition(s.cfg.Channels, partitionCapHint(len(events), s.cfg.Channels))
	for _, e := range events {
		if err := e.Validate(); err != nil {
			return nil, err
		}
		part.route(s.mapper, e.Cycle, e.Addr, e.Op == trace.Write)
	}
	return s.runPartition(part, nil)
}

// runPartition simulates the partitioned trace and assembles the result —
// the shared back half of Run, RunPrepared, and RunSource. Each channel
// goroutine draws its mutable state from the engine pool and returns it when
// the channel drains, so steady-state sweeps allocate only the snapshot.
// With a suffix memo (RunPrepared), channels may take their suffix from a
// clock-ratio sibling (suffix.go).
func (s *Simulator) runPartition(part *tracePartition, memo *suffixMemo) (*Result, error) {
	cfg := &s.cfg
	ratio := cfg.CtrlFreqMHz / cfg.CPUFreqMHz
	stats := make([]ChannelStats, cfg.Channels)
	hitRates := make([]float64, cfg.Channels)
	var wg sync.WaitGroup
	for ch := 0; ch < cfg.Channels; ch++ {
		wg.Add(1)
		go func(ch int) {
			defer wg.Done()
			st := s.acquireState()
			eng := newChannelEngine(s, st)
			eng.replay(s, &part.chans[ch], ratio, memo, ch, &stats[ch], &hitRates[ch])
			releaseEngineState(st)
		}(ch)
	}
	wg.Wait()
	res := s.assemble(stats, hitRates)
	// Fail loudly rather than let NaN/Inf/negative metrics flow silently
	// into downstream datasets.
	if err := res.ValidateMetrics(); err != nil {
		return nil, err
	}
	return res, nil
}

// acquireState draws one channel's pooled engine state, shaped for this
// simulator's geometry.
func (s *Simulator) acquireState() *engineState {
	nb, rows, depth, cacheLines, cacheWays := s.stateShape()
	return acquireEngineState(nb, rows, depth, cacheLines, cacheWays)
}

// stateShape is the engine-state geometry of this simulator's channels.
func (s *Simulator) stateShape() (nb, rows, depth, cacheLines, cacheWays int) {
	cfg := &s.cfg
	if cfg.Type == Hybrid && cfg.HybridMode != HybridFlat {
		cacheLines, cacheWays = cfg.CacheLines, cfg.CacheWays
	}
	return s.mapper.BanksPerChannel(), cfg.RowsPerBank, cfg.QueueDepth, cacheLines, cacheWays
}

func (s *Simulator) assemble(stats []ChannelStats, hitRates []float64) *Result {
	cfg := &s.cfg
	res := &Result{Config: *cfg, Channels: stats}
	var lastCompletion uint64
	var reads, writes, requests, hits, misses uint64
	var sumDev, sumTot uint64
	var bytes uint64
	var cacheTotal, cacheHits uint64
	for ch := range stats {
		st := &stats[ch]
		if st.LastCompletion > lastCompletion {
			lastCompletion = st.LastCompletion
		}
		reads += st.Reads
		writes += st.Writes
		requests += st.Requests
		hits += st.RowHits
		misses += st.RowMisses
		sumDev += st.SumDeviceLatency
		sumTot += st.SumTotalLatency
		bytes += st.BytesTransferred
		cacheHits += st.CacheHits
		cacheTotal += st.CacheHits + st.CacheMisses
		if st.MaxRowWrites > res.MaxRowWrites {
			res.MaxRowWrites = st.MaxRowWrites
		}
		res.TotalEnergyNJ += st.EnergyNJ
	}
	res.TotalCycles = lastCompletion
	res.WallTimeSeconds = float64(lastCompletion) / cfg.CyclesPerSecond()
	if res.WallTimeSeconds <= 0 {
		res.WallTimeSeconds = 1 / cfg.CyclesPerSecond()
	}
	nCh := float64(cfg.Channels)
	res.AvgReadsPerChannel = float64(reads) / nCh
	res.AvgWritesPerChannel = float64(writes) / nCh
	if requests > 0 {
		res.AvgLatency = float64(sumDev) / float64(requests)
		res.AvgTotalLatency = float64(sumTot) / float64(requests)
		var hist [64]uint64
		for ch := range stats {
			for b, c := range stats[ch].LatencyHist {
				hist[b] += c
			}
		}
		res.TotalLatencyP50 = latencyPercentile(&hist, requests, 0.50)
		res.TotalLatencyP95 = latencyPercentile(&hist, requests, 0.95)
		res.TotalLatencyP99 = latencyPercentile(&hist, requests, 0.99)
	}
	if hits+misses > 0 {
		res.RowHitRate = float64(hits) / float64(hits+misses)
	}
	if cacheTotal > 0 {
		res.CacheHitRate = float64(cacheHits) / float64(cacheTotal)
	}
	res.AvgBandwidthPerBank = float64(bytes) / float64(cfg.TotalBanks()) / res.WallTimeSeconds / 1e6

	// Power per channel: dynamic energy over wall time plus static and
	// clock-proportional interface terms.
	var power float64
	for ch := range stats {
		dyn := stats[ch].EnergyNJ * 1e-9 / res.WallTimeSeconds
		power += dyn + s.staticWatts()
	}
	res.AvgPowerPerChannel = power / nCh

	// Endurance estimate for the hottest row.
	if res.MaxRowWrites > 0 {
		writesPerSecond := float64(res.MaxRowWrites) / res.WallTimeSeconds
		res.LifetimeYears = cfg.EnduranceLimit / writesPerSecond / 3.156e7
	} else {
		res.LifetimeYears = math.Inf(1)
	}
	return res
}

// staticWatts returns the per-channel static+interface power.
func (s *Simulator) staticWatts() float64 {
	cfg := &s.cfg
	switch cfg.Type {
	case Hybrid:
		f := cfg.DRAMFraction
		static := f*cfg.CacheEnergy.StaticWatts + (1-f)*cfg.Energy.StaticWatts
		io := f*cfg.CacheEnergy.IOWattsPerMHz + (1-f)*cfg.Energy.IOWattsPerMHz
		return static + io*cfg.CtrlFreqMHz
	default:
		return cfg.Energy.StaticWatts + cfg.Energy.IOWattsPerMHz*cfg.CtrlFreqMHz
	}
}

// RunTrace is a convenience helper: build a simulator for cfg and replay
// events in one call.
func RunTrace(cfg Config, events []trace.Event) (*Result, error) {
	sim, err := New(cfg)
	if err != nil {
		return nil, err
	}
	return sim.Run(events)
}

// FormatMetric renders one metric value the way the paper's tables do.
func FormatMetric(name string, v float64) string {
	switch name {
	case "Power":
		return fmt.Sprintf("%.2f", v)
	case "MemoryReads", "MemoryWrites":
		return fmt.Sprintf("%.2E", v)
	default:
		return fmt.Sprintf("%.2f", v)
	}
}
