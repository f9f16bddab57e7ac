package memsim

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"
)

// TestPartitionParallelBuildEquivalence: the chunk-parallel partition
// builder must produce byte-identical per-channel partitions to the serial
// mapper loop — same events, same order. GOMAXPROCS is raised for the test
// so the parallel path runs even on single-CPU machines (and under -race in
// CI's chaos matrix).
func TestPartitionParallelBuildEquivalence(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	events := syntheticTrace(partitionParallelMin+12345, 31)
	pt, err := Prepare(events)
	if err != nil {
		t.Fatal(err)
	}
	for _, channels := range []int{1, 2, 4} {
		cfg := NewDRAMConfig(channels, 2000, 666)
		if err := cfg.Validate(); err != nil {
			t.Fatal(err)
		}
		m := NewAddressMapper(&cfg)
		serial := buildPartitionSerial(m, pt.cycles, pt.addrs, pt.writes)
		parallel := buildPartition(m, pt.cycles, pt.addrs, pt.writes)
		for ch := range serial.chans {
			if !reflect.DeepEqual(serial.chans[ch].cycles, parallel.chans[ch].cycles) ||
				!reflect.DeepEqual(serial.chans[ch].lines, parallel.chans[ch].lines) ||
				!reflect.DeepEqual(serial.chans[ch].meta, parallel.chans[ch].meta) {
				t.Fatalf("%d channels: parallel partition diverged on channel %d", channels, ch)
			}
		}
	}
}

// TestPartitionCacheSingleFlightAndEviction: concurrent replays of a new
// geometry share one partition build, and the per-trace cache stays bounded
// at partitionCacheCap geometries with LRU eviction.
func TestPartitionCacheSingleFlightAndEviction(t *testing.T) {
	events := syntheticTrace(4096, 7)
	pt, err := Prepare(events)
	if err != nil {
		t.Fatal(err)
	}
	// Walk more geometries than the cache holds (vary LineBytes, which is
	// part of the mapping geometry), then revisit the most recent one.
	var last Config
	for i := 0; i < partitionCacheCap+2; i++ {
		last = NewDRAMConfig(2, 2000, 666)
		last.LineBytes = 32 << uint(i)
		if _, err := RunPreparedTrace(last, pt); err != nil {
			t.Fatal(err)
		}
	}
	st := pt.PartitionCacheStats()
	if st.Entries > partitionCacheCap {
		t.Fatalf("partition cache grew past its bound: %+v", st)
	}
	if st.Misses != uint64(partitionCacheCap+2) {
		t.Fatalf("distinct geometries must all build: %+v", st)
	}
	if _, err := RunPreparedTrace(last, pt); err != nil {
		t.Fatal(err)
	}
	if st = pt.PartitionCacheStats(); st.Hits != 1 {
		t.Fatalf("revisiting the most recent geometry must hit: %+v", st)
	}
}

// TestMetaPackingBounds: Validate must reject organizations that cannot be
// packed into the partition meta word, and accept everything physical.
func TestMetaPackingBounds(t *testing.T) {
	ok := NewDRAMConfig(2, 2000, 666)
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	rows := NewDRAMConfig(2, 2000, 666)
	rows.RowsPerBank = 1 << 41
	if err := rows.Validate(); err == nil {
		t.Fatal("RowsPerBank beyond 2^40 must be rejected")
	}
	banks := NewDRAMConfig(2, 2000, 666)
	banks.RanksPerChannel = 1 << 12
	banks.BanksPerRank = 1 << 12
	if err := banks.Validate(); err == nil {
		t.Fatal("ranks×banks beyond 2^23 must be rejected")
	}
}

// TestPartitionExactSize: both builders leave every channel's slices at
// exactly their length, since a cached partition lives as long as its trace.
func TestPartitionExactSize(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	// The short trace takes buildPartition's serial branch, the long one
	// its chunked branch.
	for _, n := range []int{4096, partitionParallelMin + 12345} {
		pt, err := Prepare(syntheticTrace(n, 31))
		if err != nil {
			t.Fatal(err)
		}
		for _, channels := range []int{1, 2, 4} {
			cfg := NewDRAMConfig(channels, 2000, 666)
			if err := cfg.Validate(); err != nil {
				t.Fatal(err)
			}
			m := NewAddressMapper(&cfg)
			builders := map[string]*tracePartition{
				"buildPartitionSerial": buildPartitionSerial(m, pt.cycles, pt.addrs, pt.writes),
				"buildPartition":       buildPartition(m, pt.cycles, pt.addrs, pt.writes),
			}
			for name, tp := range builders {
				total := 0
				for ch, cp := range tp.chans {
					l := cp.len()
					total += l
					if cap(cp.cycles) != l || cap(cp.lines) != l || cap(cp.meta) != l ||
						len(cp.lines) != l || len(cp.meta) != l {
						t.Fatalf("%s, %d events, %d channels, channel %d: len %d, caps %d/%d/%d",
							name, n, channels, ch, l, cap(cp.cycles), cap(cp.lines), cap(cp.meta))
					}
				}
				if total != n {
					t.Fatalf("%s, %d channels: %d events routed, want %d", name, channels, total, n)
				}
			}
		}
	}
}

// TestChannelOfMatchesMap: the serial builder's counting pass agrees with
// Map on every address, for both mapping schemes, channel counts that are
// and are not powers of two, and addresses past 2^32.
func TestChannelOfMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, scheme := range []MappingScheme{MapRowInterleaved, MapChannelBlocked} {
		for _, channels := range []int{1, 2, 3, 4, 8} {
			cfg := NewDRAMConfig(channels, 2000, 666)
			cfg.Mapping = scheme
			if err := cfg.Validate(); err != nil {
				t.Fatal(err)
			}
			m := NewAddressMapper(&cfg)
			for i := 0; i < 20000; i++ {
				addr := rng.Uint64() >> uint(rng.Intn(40))
				if got, want := m.channelOf(addr), m.Map(addr).Channel; got != want {
					t.Fatalf("%v, %d channels, addr %#x: channelOf %d, Map %d", scheme, channels, addr, got, want)
				}
			}
		}
	}
}
