package memsim

// MappingScheme selects how addresses spread across channels.
type MappingScheme int

// Mapping schemes.
const (
	// MapRowInterleaved (default) rotates small line runs across channels —
	// fine-grained interleaving maximizing channel-level parallelism.
	MapRowInterleaved MappingScheme = iota
	// MapChannelBlocked assigns large contiguous 4 MiB blocks to channels —
	// the NUMA-style layout that concentrates a working set on few channels.
	MapChannelBlocked
)

// String names the scheme.
func (s MappingScheme) String() string {
	if s == MapChannelBlocked {
		return "channel-blocked"
	}
	return "row-interleaved"
}

// Location is a decoded physical address: which channel, rank, bank and row
// a line maps to.
type Location struct {
	Channel int
	Rank    int
	Bank    int
	Row     int
	Line    uint64 // global line index (addr / LineBytes)
}

// AddressMapper implements the controller's open-page address decomposition
// "row : rank : bank : colHigh : channel : colLow" (NVMain's default-style
// mapping): a small run of consecutive lines stays in one channel's open
// row, runs rotate across channels, and a row is revisited only after
// ColsPerRow × Channels lines — so streaming scans enjoy both row-buffer
// hits and channel-level parallelism.
type AddressMapper struct {
	lineBytes int
	channels  int
	ranks     int
	banks     int
	rows      int
	cols      int // lines per row
	colLow    int // lines kept adjacent within a channel
	scheme    MappingScheme
}

// NewAddressMapper builds a mapper from a validated configuration.
func NewAddressMapper(c *Config) *AddressMapper {
	return &AddressMapper{
		lineBytes: c.LineBytes,
		channels:  c.Channels,
		ranks:     c.RanksPerChannel,
		banks:     c.BanksPerRank,
		rows:      c.RowsPerBank,
		cols:      c.ColsPerRow,
		colLow:    4,
		scheme:    c.Mapping,
	}
}

// channelBlockLines is the lines per channel block of MapChannelBlocked.
const channelBlockLines = 1 << 16

// channelOf returns Map(addr).Channel without the rest of the
// decomposition.
func (m *AddressMapper) channelOf(addr uint64) int {
	line := addr / uint64(m.lineBytes)
	if m.scheme == MapChannelBlocked {
		return int((line / channelBlockLines) % uint64(m.channels))
	}
	return int((line / uint64(m.colLow)) % uint64(m.channels))
}

// Map decodes a byte address.
func (m *AddressMapper) Map(addr uint64) Location {
	line := addr / uint64(m.lineBytes)
	if m.scheme == MapChannelBlocked {
		// 4 MiB blocks per channel: channel from high bits, the rest of the
		// decomposition as in the interleaved scheme but without a channel
		// level.
		ch := int((line / channelBlockLines) % uint64(m.channels))
		rest := line / uint64(m.colLow)
		rest /= uint64(m.cols / m.colLow)
		bank := int(rest % uint64(m.banks))
		rest /= uint64(m.banks)
		rank := int(rest % uint64(m.ranks))
		rest /= uint64(m.ranks)
		row := int(rest % uint64(m.rows))
		return Location{Channel: ch, Rank: rank, Bank: bank, Row: row, Line: line}
	}
	rest := line / uint64(m.colLow) // colLow bits stay within the channel run
	ch := int(rest % uint64(m.channels))
	rest /= uint64(m.channels)
	rest /= uint64(m.cols / m.colLow) // colHigh
	bank := int(rest % uint64(m.banks))
	rest /= uint64(m.banks)
	rank := int(rest % uint64(m.ranks))
	rest /= uint64(m.ranks)
	row := int(rest % uint64(m.rows))
	return Location{Channel: ch, Rank: rank, Bank: bank, Row: row, Line: line}
}

// BankIndex flattens (rank, bank) into a per-channel bank index.
func (m *AddressMapper) BankIndex(loc Location) int {
	return loc.Rank*m.banks + loc.Bank
}

// BanksPerChannel returns ranks × banks.
func (m *AddressMapper) BanksPerChannel() int { return m.ranks * m.banks }
