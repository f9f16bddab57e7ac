package memsim

import (
	"errors"
	"fmt"
	"math"
	"sync"
)

// simulator replays prepared traces against one configuration. The engine
// itself lives in engine.go (per-channel replay over pooled state),
// partition.go (the SoA per-channel trace form) and timing.go (folded
// per-tier timing tables); this file holds the run entry point and result
// assembly.
type simulator struct {
	cfg    Config
	mapper *AddressMapper
	back   timingTable // backing-store tier (the only tier for DRAM/NVM)
	front  timingTable // DRAM tier of a hybrid (cache front or flat DRAM half)
}

// ErrEmptyTrace is returned when a replay is given a trace with no events.
var ErrEmptyTrace = errors.New("memsim: empty trace")

// newSimulator validates the configuration and builds a simulator.
func newSimulator(cfg Config) (*simulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &simulator{cfg: cfg}
	s.mapper = NewAddressMapper(&s.cfg)
	s.back = buildTimingTable(&s.cfg.Timing, &s.cfg.Energy)
	s.front = buildTimingTable(&s.cfg.CacheTiming, &s.cfg.CacheEnergy)
	return s, nil
}

// RunPreparedTrace replays a prepared trace (CPU-cycle timestamps,
// ascending) against cfg and returns the aggregated metrics. It is the one
// way to run a trace: Prepare or PrepareSource validates and decodes it
// once, and any number of replays, concurrent ones included, share it.
// Events are not re-validated, and the per-channel partition is drawn from
// the trace's geometry-keyed cache, so a replay costs channel simulation
// plus (on a geometry's first use only) address mapping.
func RunPreparedTrace(cfg Config, p *PreparedTrace) (*Result, error) {
	s, err := newSimulator(cfg)
	if err != nil {
		return nil, err
	}
	return s.runPrepared(p)
}

// runPrepared simulates the trace's partition and assembles the result.
// Channels are independent and simulated in parallel. Each channel
// goroutine draws its mutable state from the engine pool and returns it when
// the channel drains, so steady-state sweeps allocate only the snapshot. A
// channel may take its suffix from a clock-ratio sibling through the trace's
// suffix memo (suffix.go).
func (s *simulator) runPrepared(p *PreparedTrace) (*Result, error) {
	if p.Len() == 0 {
		return nil, ErrEmptyTrace
	}
	part := p.partitionFor(s.mapper)
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
			eng.replay(s, &part.chans[ch], ratio, &p.suffixes, ch, &stats[ch], &hitRates[ch])
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
func (s *simulator) acquireState() *engineState {
	nb, rows, depth, cacheLines, cacheWays := s.stateShape()
	return acquireEngineState(nb, rows, depth, cacheLines, cacheWays)
}

// stateShape is the engine-state geometry of this simulator's channels.
func (s *simulator) stateShape() (nb, rows, depth, cacheLines, cacheWays int) {
	cfg := &s.cfg
	if cfg.Type == Hybrid && cfg.HybridMode != HybridFlat {
		cacheLines, cacheWays = cfg.CacheLines, cfg.CacheWays
	}
	return s.mapper.BanksPerChannel(), cfg.RowsPerBank, cfg.QueueDepth, cacheLines, cacheWays
}

func (s *simulator) assemble(stats []ChannelStats, hitRates []float64) *Result {
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
func (s *simulator) staticWatts() float64 {
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
