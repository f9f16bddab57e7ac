package memsim

import (
	"errors"
	"strings"
	"testing"
)

func TestMemTypeStrings(t *testing.T) {
	if DRAM.String() != "DRAM" || NVM.String() != "NVM" || Hybrid.String() != "Hybrid" {
		t.Fatal("MemType names wrong")
	}
	if DRAM.Short() != "D" || NVM.Short() != "N" || Hybrid.Short() != "H" {
		t.Fatal("MemType short tags wrong")
	}
	if !strings.Contains(MemType(9).String(), "9") || MemType(9).Short() != "?" {
		t.Fatal("unknown MemType rendering wrong")
	}
	if FCFS.String() != "FCFS" || FRFCFS.String() != "FR-FCFS" {
		t.Fatal("scheduler names wrong")
	}
}

func TestValidateFillsDefaults(t *testing.T) {
	c := NewDRAMConfig(2, 2000, 400)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.LineBytes != 64 || c.QueueDepth != 32 {
		t.Fatalf("defaults not filled: %+v", c)
	}
	if c.EnduranceLimit != 1e15 {
		t.Fatalf("DRAM endurance default = %v", c.EnduranceLimit)
	}
	n := NewNVMConfig(2, 2000, 400, 20)
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	if n.EnduranceLimit != 1e8 {
		t.Fatalf("NVM endurance default = %v", n.EnduranceLimit)
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	bad := []Config{
		{},
		{Channels: 2, RanksPerChannel: 1, BanksPerRank: 8, RowsPerBank: 64},                                      // no freqs
		{Channels: 2, RanksPerChannel: 1, BanksPerRank: 8, RowsPerBank: 64, CPUFreqMHz: 2000, CtrlFreqMHz: 400},  // no TBURST
		{Channels: -1, RanksPerChannel: 1, BanksPerRank: 8, RowsPerBank: 64, CPUFreqMHz: 2000, CtrlFreqMHz: 400}, // bad channels
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Fatalf("config %d should be invalid", i)
		}
	}
	h := NewHybridConfig(2, 2000, 400, 20, 0.25)
	h.DRAMFraction = 1.5
	if err := h.Validate(); err == nil {
		t.Fatal("expected fraction error")
	}
	h2 := NewHybridConfig(2, 2000, 400, 20, 0.25)
	h2.CacheTiming = Timing{}
	if err := h2.Validate(); err == nil {
		t.Fatal("expected cache-timing error")
	}
}

// TestValidateRejectsRefreshNotShorterThanInterval: a tier whose tRFC is
// not below its tREFI is refused for the main timing and for a hybrid's
// cache timing alike; replaying it would never finish a refresh catch-up.
func TestValidateRejectsRefreshNotShorterThanInterval(t *testing.T) {
	for _, c := range []struct {
		name        string
		cache       bool
		trefi, trfc uint64
		ok          bool
	}{
		{"timing/longer", false, 82, 89, false},
		{"timing/equal", false, 82, 82, false},
		{"timing/shorter", false, 82, 81, true},
		{"cache/longer", true, 82, 89, false},
		{"cache/equal", true, 82, 82, false},
		{"cache/shorter", true, 82, 81, true},
		{"refresh-off", true, 0, 89, true},
	} {
		cfg := NewHybridConfig(2, 2000, 400, 20, 0.25)
		tier := &cfg.Timing
		if c.cache {
			tier = &cfg.CacheTiming
		}
		tier.TREFI, tier.TRFC = c.trefi, c.trfc
		err := cfg.Validate()
		if c.ok && err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
		if !c.ok && !errors.Is(err, ErrConfig) {
			t.Errorf("%s: got %v, want ErrConfig", c.name, err)
		}
	}
}

func TestValidateHybridCacheGeometry(t *testing.T) {
	c := NewHybridConfig(2, 2000, 666, 33, 0.25)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.CacheLines <= 0 || c.CacheLines%c.CacheWays != 0 {
		t.Fatalf("cache geometry: lines=%d ways=%d", c.CacheLines, c.CacheWays)
	}
	// Larger fraction → larger cache.
	big := NewHybridConfig(2, 2000, 666, 33, 0.5)
	if err := big.Validate(); err != nil {
		t.Fatal(err)
	}
	if big.CacheLines <= c.CacheLines {
		t.Fatalf("fraction 0.5 cache (%d) not larger than 0.25 (%d)", big.CacheLines, c.CacheLines)
	}
}

func TestNVMTimingNoRestore(t *testing.T) {
	nt := NVMTiming(40)
	if nt.TRAS != 0 {
		t.Fatalf("NVM TRAS = %d, want 0 (no data restore)", nt.TRAS)
	}
	if nt.TRCD != 40 {
		t.Fatalf("TRCD = %d", nt.TRCD)
	}
	if nt.TWP == 0 {
		t.Fatal("NVM should have a write-pulse penalty")
	}
	dt := DRAMTiming()
	if dt.TRAS != 24 || dt.TRCD != 9 {
		t.Fatalf("paper DRAM timing: tRAS=%d tRCD=%d, want 24/9", dt.TRAS, dt.TRCD)
	}
}

func TestNVMTRCDSweepMatchesPaper(t *testing.T) {
	cases := map[float64][]uint64{
		400:  {20, 30, 40, 50, 60, 80},
		666:  {33, 50, 67, 83, 100, 133},
		1250: {62, 94, 125, 156, 187, 250},
		1600: {80, 120, 160, 200, 240, 320},
	}
	for freq, want := range cases {
		got := NVMTRCDSweep(freq)
		if len(got) != len(want) {
			t.Fatalf("freq %v: %v", freq, got)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("freq %v: got %v, want %v", freq, got, want)
			}
		}
	}
	// Unknown frequency scales proportionally.
	got := NVMTRCDSweep(800)
	if got[0] != 40 || got[5] != 160 {
		t.Fatalf("scaled sweep = %v", got)
	}
}

func TestTotalBanks(t *testing.T) {
	c := NewDRAMConfig(4, 2000, 400)
	if got := c.TotalBanks(); got != 32 {
		t.Fatalf("TotalBanks = %d", got)
	}
}

func TestAddressMapperRoundRobin(t *testing.T) {
	c := NewDRAMConfig(4, 2000, 400)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	m := NewAddressMapper(&c)
	// Runs of 4 consecutive 64B lines share a channel; runs rotate channels.
	for i := 0; i < 32; i++ {
		loc := m.Map(uint64(i * 64))
		if want := (i / 4) % 4; loc.Channel != want {
			t.Fatalf("line %d channel = %d, want %d", i, loc.Channel, want)
		}
	}
	// Line 16 revisits channel 0 at the next column of the same open row.
	first := m.Map(0)
	nextCol := m.Map(64 * 16)
	if nextCol.Channel != first.Channel || nextCol.Row != first.Row || nextCol.Bank != first.Bank {
		t.Fatalf("sequential same-channel lines should share a row: %+v vs %+v", first, nextCol)
	}
	// Same-line bytes map identically.
	a := m.Map(100)
	b := m.Map(120)
	if a != b {
		t.Fatalf("same line mapped differently: %+v vs %+v", a, b)
	}
}

func TestAddressMapperFieldsInRange(t *testing.T) {
	c := NewNVMConfig(2, 2000, 666, 33)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	m := NewAddressMapper(&c)
	for addr := uint64(0); addr < 1<<22; addr += 4093 {
		loc := m.Map(addr)
		if loc.Channel < 0 || loc.Channel >= c.Channels ||
			loc.Rank < 0 || loc.Rank >= c.RanksPerChannel ||
			loc.Bank < 0 || loc.Bank >= c.BanksPerRank ||
			loc.Row < 0 || loc.Row >= c.RowsPerBank {
			t.Fatalf("addr %#x out of range: %+v", addr, loc)
		}
		bi := m.BankIndex(loc)
		if bi < 0 || bi >= m.BanksPerChannel() {
			t.Fatalf("bank index %d out of range", bi)
		}
	}
}

func TestMappingSchemes(t *testing.T) {
	if MapRowInterleaved.String() != "row-interleaved" || MapChannelBlocked.String() != "channel-blocked" {
		t.Fatal("scheme names wrong")
	}
	c := NewDRAMConfig(4, 2000, 400)
	c.Mapping = MapChannelBlocked
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	m := NewAddressMapper(&c)
	// A contiguous 1 MiB scan stays inside one channel under blocked
	// mapping.
	first := m.Map(0).Channel
	for addr := uint64(0); addr < 1<<20; addr += 4096 {
		if m.Map(addr).Channel != first {
			t.Fatalf("blocked mapping split a 1 MiB region at %#x", addr)
		}
	}
	// The next 4 MiB block lands on the next channel.
	if next := m.Map(4 << 20).Channel; next == first {
		t.Fatal("blocked mapping did not advance channels across blocks")
	}
	// Fields stay in range.
	for addr := uint64(0); addr < 1<<24; addr += 65537 {
		loc := m.Map(addr)
		if loc.Channel < 0 || loc.Channel >= 4 || loc.Row < 0 || loc.Row >= c.RowsPerBank {
			t.Fatalf("out of range: %+v", loc)
		}
	}
}

func TestMappingSchemeBalancesLoad(t *testing.T) {
	// A small working set (1 MiB) spreads evenly under interleaving but
	// lands on one channel under blocked mapping.
	inter := NewDRAMConfig(4, 2000, 400)
	if err := inter.Validate(); err != nil {
		t.Fatal(err)
	}
	blocked := NewDRAMConfig(4, 2000, 400)
	blocked.Mapping = MapChannelBlocked
	if err := blocked.Validate(); err != nil {
		t.Fatal(err)
	}
	mi := NewAddressMapper(&inter)
	mb := NewAddressMapper(&blocked)
	countI := make([]int, 4)
	countB := make([]int, 4)
	for addr := uint64(0); addr < 1<<20; addr += 64 {
		countI[mi.Map(addr).Channel]++
		countB[mb.Map(addr).Channel]++
	}
	for ch, c := range countI {
		if c == 0 {
			t.Fatalf("interleaved left channel %d idle", ch)
		}
	}
	busy := 0
	for _, c := range countB {
		if c > 0 {
			busy++
		}
	}
	if busy != 1 {
		t.Fatalf("blocked mapping used %d channels for 1 MiB, want 1", busy)
	}
}
