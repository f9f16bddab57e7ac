// Package memsim is a cycle-level main-memory simulator in the spirit of
// NVMain (Poremba & Xie, ISVLSI'12): it replays a memory-access trace
// against a configurable memory organization (channels × ranks × banks,
// open-row policy, FCFS or FR-FCFS scheduling, DDR-style timing parameters)
// and reports the performance metrics the paper's design-space exploration
// consumes — per-channel power, per-bank bandwidth, average device latency,
// average total (queue-inclusive) latency, and per-channel read/write
// counts. Three device models are provided: DRAM, non-volatile memory (no
// tRAS data-restore constraint, frequency-proportional I/O background power,
// finite endurance), and a hybrid organization with a DRAM cache in front of
// an NVM backing store.
package memsim

import (
	"errors"
	"fmt"
)

// MemType selects the device model.
type MemType int

// Device models.
const (
	DRAM MemType = iota
	NVM
	Hybrid
)

// String returns the short name used in report tables ("D", "N", "H").
func (t MemType) String() string {
	switch t {
	case DRAM:
		return "DRAM"
	case NVM:
		return "NVM"
	case Hybrid:
		return "Hybrid"
	default:
		return fmt.Sprintf("MemType(%d)", int(t))
	}
}

// Short returns the single-letter tag used in Figure 2 of the paper.
func (t MemType) Short() string {
	switch t {
	case DRAM:
		return "D"
	case NVM:
		return "N"
	case Hybrid:
		return "H"
	default:
		return "?"
	}
}

// HybridKind selects how a hybrid (DRAM+NVM) memory is organized, the two
// organizations NVMain models.
type HybridKind int

// Hybrid organizations.
const (
	// HybridCache puts a DRAM cache in front of an NVM backing store;
	// hits are absorbed, so backend traffic drops with the hit rate.
	HybridCache HybridKind = iota
	// HybridFlat partitions the address space: a DRAMFraction of the lines
	// live on DRAM-timed banks, the rest on NVM-timed banks, sharing each
	// channel's bus and controller queue. Every request reaches exactly one
	// tier, so per-channel operation counts match the pure configurations.
	HybridFlat
)

// String names the organization.
func (k HybridKind) String() string {
	if k == HybridFlat {
		return "flat"
	}
	return "cache"
}

// PagePolicy selects the row-buffer management policy.
type PagePolicy int

// Row-buffer policies.
const (
	// OpenPage keeps rows open after access, betting on row-buffer locality.
	OpenPage PagePolicy = iota
	// ClosedPage auto-precharges after every access, giving uniform access
	// latency (tRCD+tCAS+tBURST) at the cost of losing row hits.
	ClosedPage
)

// String names the policy.
func (p PagePolicy) String() string {
	if p == ClosedPage {
		return "closed-page"
	}
	return "open-page"
}

// SchedulerKind selects the memory-controller scheduling policy.
type SchedulerKind int

// Scheduling policies.
const (
	// FCFS services requests strictly in arrival order.
	FCFS SchedulerKind = iota
	// FRFCFS prefers row-buffer hits within the scheduling window
	// (first-ready, first-come-first-served).
	FRFCFS
)

// String names the policy.
func (s SchedulerKind) String() string {
	if s == FRFCFS {
		return "FR-FCFS"
	}
	return "FCFS"
}

// Timing holds device timing parameters in memory-controller clock cycles,
// mirroring the NVMain configuration keys the paper sweeps.
type Timing struct {
	// TRCD is the row-activation (row-to-column) delay.
	TRCD uint64
	// TRAS is the minimum activate-to-precharge time (data restoration).
	// Zero for NVM: non-volatile cells need no restore (§IV-A.2).
	TRAS uint64
	// TRP is the precharge time.
	TRP uint64
	// TCAS is the column-access (read) latency.
	TCAS uint64
	// TBURST is the data-burst occupancy of the channel bus.
	TBURST uint64
	// TWR is the write-recovery time after a write burst.
	TWR uint64
	// TWP is the extra write-pulse latency NVM cells need (0 for DRAM).
	TWP uint64
	// TREFI is the refresh interval in controller cycles; 0 disables
	// event-level refresh (the default — refresh power is then folded into
	// the static term). NVM needs no refresh.
	TREFI uint64
	// TRFC is the refresh cycle time (bank blocked) when TREFI > 0.
	TRFC uint64
}

// Energy holds the power-model constants (nanojoules per operation, watts
// for static terms).
type Energy struct {
	// EActivate is the row activation+restore energy (nJ).
	EActivate float64
	// ERead and EWrite are per-burst access energies (nJ).
	ERead, EWrite float64
	// ERefresh is the energy per event-level refresh (nJ), used only when
	// Timing.TREFI > 0.
	ERefresh float64
	// StaticWatts is the frequency-independent background power per channel
	// (refresh, leakage) in watts.
	StaticWatts float64
	// IOWattsPerMHz is the clock-proportional interface power per channel in
	// watts per MHz of controller frequency.
	IOWattsPerMHz float64
}

// Config fully describes one memory configuration — a row of the paper's
// design space.
type Config struct {
	Type MemType

	// Organization.
	Channels        int
	RanksPerChannel int
	BanksPerRank    int
	RowsPerBank     int
	// ColsPerRow is the number of LineBytes-sized columns per row (default
	// 128, an 8 KiB row at 64-byte lines).
	ColsPerRow int
	// LineBytes is the transfer granularity (burst size in bytes).
	LineBytes int

	// Clocks in MHz.
	CPUFreqMHz  float64
	CtrlFreqMHz float64

	// Device timing. For Hybrid, Timing describes the NVM backing store and
	// CacheTiming the DRAM cache front.
	Timing      Timing
	CacheTiming Timing

	// Energy model. For Hybrid, Energy describes the NVM backing store and
	// CacheEnergy the DRAM cache front.
	Energy      Energy
	CacheEnergy Energy

	Scheduler SchedulerKind
	// Policy selects open-page (default) or closed-page row management.
	Policy PagePolicy
	// HybridMode selects the hybrid organization (cache or flat).
	HybridMode HybridKind
	// Mapping selects the channel address-mapping scheme.
	Mapping MappingScheme
	// QueueDepth is the FR-FCFS scheduling window (and a sanity bound for
	// FCFS); <=0 defaults to 32.
	QueueDepth int

	// Hybrid parameters: DRAMFraction of the capacity is DRAM cache.
	// CacheLines (derived if 0) is the number of LineBytes lines in the
	// cache; CacheWays its associativity.
	DRAMFraction float64
	CacheLines   int
	CacheWays    int

	// EnduranceLimit is the per-cell write endurance used for lifetime
	// estimates (1e8–1e9 for NVM, effectively infinite for DRAM).
	EnduranceLimit float64
}

// ErrConfig reports an invalid configuration.
var ErrConfig = errors.New("memsim: invalid configuration")

// Validate checks structural invariants and fills defaults.
func (c *Config) Validate() error {
	if c.Channels <= 0 || c.RanksPerChannel <= 0 || c.BanksPerRank <= 0 || c.RowsPerBank <= 0 {
		return fmt.Errorf("%w: organization %d ch × %d ranks × %d banks × %d rows",
			ErrConfig, c.Channels, c.RanksPerChannel, c.BanksPerRank, c.RowsPerBank)
	}
	// The replay engine packs (row, bank, write) into one word per event
	// (partition.go); these bounds sit far beyond any physical organization.
	if int64(c.RowsPerBank) > 1<<metaRowBits {
		return fmt.Errorf("%w: RowsPerBank %d exceeds the 2^%d partition packing bound",
			ErrConfig, c.RowsPerBank, metaRowBits)
	}
	if int64(c.RanksPerChannel)*int64(c.BanksPerRank) > 1<<metaBankBits {
		return fmt.Errorf("%w: %d ranks × %d banks exceeds the 2^%d partition packing bound",
			ErrConfig, c.RanksPerChannel, c.BanksPerRank, metaBankBits)
	}
	if c.LineBytes <= 0 {
		c.LineBytes = 64
	}
	if c.ColsPerRow <= 0 {
		c.ColsPerRow = 128
	}
	if c.ColsPerRow%4 != 0 {
		return fmt.Errorf("%w: ColsPerRow %d must be a multiple of 4", ErrConfig, c.ColsPerRow)
	}
	if c.CPUFreqMHz <= 0 || c.CtrlFreqMHz <= 0 {
		return fmt.Errorf("%w: cpu %v MHz, ctrl %v MHz", ErrConfig, c.CPUFreqMHz, c.CtrlFreqMHz)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 32
	}
	if c.Timing.TBURST == 0 {
		return fmt.Errorf("%w: zero TBURST", ErrConfig)
	}
	if err := c.Timing.checkRefresh("timing"); err != nil {
		return err
	}
	if c.Type == Hybrid {
		if c.DRAMFraction <= 0 || c.DRAMFraction >= 1 {
			return fmt.Errorf("%w: hybrid DRAM fraction %v out of (0,1)", ErrConfig, c.DRAMFraction)
		}
		if c.CacheWays <= 0 {
			c.CacheWays = 4
		}
		if c.CacheLines <= 0 {
			// Scale the DRAM cache with the configured fraction of a nominal
			// per-channel capacity.
			c.CacheLines = int(c.DRAMFraction * float64(c.Channels*c.RowsPerBank*c.BanksPerRank))
		}
		if c.CacheLines < c.CacheWays {
			c.CacheLines = c.CacheWays
		}
		// Round sets to a positive count.
		if c.CacheLines%c.CacheWays != 0 {
			c.CacheLines += c.CacheWays - c.CacheLines%c.CacheWays
		}
		if c.CacheTiming.TBURST == 0 {
			return fmt.Errorf("%w: hybrid without cache timing", ErrConfig)
		}
		if err := c.CacheTiming.checkRefresh("cache timing"); err != nil {
			return err
		}
	}
	if c.EnduranceLimit <= 0 {
		if c.Type == DRAM {
			c.EnduranceLimit = 1e15
		} else {
			c.EnduranceLimit = 1e8
		}
	}
	return nil
}

// checkRefresh rejects a refresh that blocks its bank for at least the
// whole refresh interval: serviceTier's refresh catch-up would then never
// overtake the next refresh, and the replay would not end.
func (t *Timing) checkRefresh(tier string) error {
	if t.TREFI > 0 && t.TRFC >= t.TREFI {
		return fmt.Errorf("%w: %s tRFC %d >= tREFI %d", ErrConfig, tier, t.TRFC, t.TREFI)
	}
	return nil
}

// TotalBanks returns banks across all channels and ranks.
func (c *Config) TotalBanks() int {
	return c.Channels * c.RanksPerChannel * c.BanksPerRank
}

// CyclesPerSecond returns the controller clock rate in Hz.
func (c *Config) CyclesPerSecond() float64 { return c.CtrlFreqMHz * 1e6 }

// DRAMTiming returns the paper's DRAM timing at any controller frequency:
// tRAS=24 and tRCD=9 controller cycles (§IV-A.2), with companion parameters
// from DDR3-class devices.
func DRAMTiming() Timing {
	return Timing{TRCD: 9, TRAS: 24, TRP: 9, TCAS: 9, TBURST: 4, TWR: 10}
}

// NVMTiming returns NVM timing for a controller frequency and a cell read
// time expressed directly in controller cycles (the paper sweeps tRCD over
// {50ns … 200ns} equivalents per frequency); tRAS is zero because NVM needs
// no data restore.
func NVMTiming(tRCDCycles uint64) Timing {
	return Timing{TRCD: tRCDCycles, TRAS: 0, TRP: 1, TCAS: 9, TBURST: 4, TWR: 10, TWP: 3 * tRCDCycles / 2}
}

// NVMTRCDSweep returns the paper's tRCD sweep for a controller frequency in
// MHz (§IV-A.2). Unknown frequencies scale the 400 MHz base sweep
// proportionally.
func NVMTRCDSweep(ctrlFreqMHz float64) []uint64 {
	switch ctrlFreqMHz {
	case 400:
		return []uint64{20, 30, 40, 50, 60, 80}
	case 666:
		return []uint64{33, 50, 67, 83, 100, 133}
	case 1250:
		return []uint64{62, 94, 125, 156, 187, 250}
	case 1600:
		return []uint64{80, 120, 160, 200, 240, 320}
	default:
		base := []uint64{20, 30, 40, 50, 60, 80}
		out := make([]uint64, len(base))
		for i, b := range base {
			out[i] = uint64(float64(b) * ctrlFreqMHz / 400)
		}
		return out
	}
}

// DRAMEnergy returns calibrated DRAM power-model constants: activation and
// restore dominate dynamic energy; refresh and leakage dominate the static
// term.
func DRAMEnergy() Energy {
	return Energy{EActivate: 0.4, ERead: 0.22, EWrite: 0.26, StaticWatts: 0.12, IOWattsPerMHz: 6e-6}
}

// NVMEnergy returns calibrated NVM power-model constants: no refresh and
// negligible leakage, costlier cell writes, and interface power proportional
// to the controller clock (the dominant NVM power term, which is why the
// paper's NVM power grows with controller frequency).
func NVMEnergy() Energy {
	return Energy{EActivate: 0.08, ERead: 0.32, EWrite: 0.8, StaticWatts: 0.002, IOWattsPerMHz: 9e-5}
}

// NewDRAMConfig assembles a pure-DRAM configuration.
func NewDRAMConfig(channels int, cpuMHz, ctrlMHz float64) Config {
	return Config{
		Type:            DRAM,
		Channels:        channels,
		RanksPerChannel: 1,
		BanksPerRank:    8,
		RowsPerBank:     4096,
		CPUFreqMHz:      cpuMHz,
		CtrlFreqMHz:     ctrlMHz,
		Timing:          DRAMTiming(),
		Energy:          DRAMEnergy(),
		Scheduler:       FRFCFS,
	}
}

// NewNVMConfig assembles a pure-NVM configuration with the given cell read
// time in controller cycles.
func NewNVMConfig(channels int, cpuMHz, ctrlMHz float64, tRCDCycles uint64) Config {
	return Config{
		Type:            NVM,
		Channels:        channels,
		RanksPerChannel: 1,
		BanksPerRank:    8,
		RowsPerBank:     4096,
		CPUFreqMHz:      cpuMHz,
		CtrlFreqMHz:     ctrlMHz,
		Timing:          NVMTiming(tRCDCycles),
		Energy:          NVMEnergy(),
		Scheduler:       FRFCFS,
	}
}

// NewHybridConfig assembles a hybrid configuration: a DRAM cache covering
// dramFraction of the nominal capacity in front of an NVM backing store.
func NewHybridConfig(channels int, cpuMHz, ctrlMHz float64, tRCDCycles uint64, dramFraction float64) Config {
	c := NewNVMConfig(channels, cpuMHz, ctrlMHz, tRCDCycles)
	c.Type = Hybrid
	c.DRAMFraction = dramFraction
	c.CacheTiming = DRAMTiming()
	c.CacheEnergy = DRAMEnergy()
	c.CacheWays = 4
	return c
}
