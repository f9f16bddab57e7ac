package memsim

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"graphdse/internal/trace"
)

// The golden equivalence suite pins the replay engine's exact output across
// the full device × scheduler × page-policy matrix (plus refresh and
// channel-blocked mapping variants). The fixtures were captured from the
// pre-refactor engine (PR 7's seed); every later restructuring of the replay
// core must reproduce them bit-for-bit — float fields included, since JSON
// round-trips float64 exactly via the shortest-representation encoding.
// The cases after dram_blocked (odd queue depths, odd set counts, a
// non-k/1024 flat split, line indices ≥ 2^32) were captured from the
// engine as it stood before the per-request path dropped its divisions and
// its sorted in-flight insert, and pin exactly the inputs that rewrite
// could get wrong.
//
// Regenerate (only when the model itself intentionally changes) with:
//
//	MEMSIM_UPDATE_GOLDEN=1 go test ./internal/memsim -run TestGolden

// goldenTraceN is sized so every config exercises queue backpressure, row
// misses, cache evictions and writebacks without bloating test time.
const goldenTraceN = 20000

// goldenCase is one cell of the equivalence matrix. highLines replays the
// golden trace with addresses spread above 2^38 bytes, so global line
// indices reach past 2^32.
type goldenCase struct {
	name      string
	cfg       Config
	highLines bool
}

func goldenCases() []goldenCase {
	var cases []goldenCase
	types := []struct {
		tag string
		mk  func() Config
	}{
		{"dram", func() Config { return NewDRAMConfig(2, 2000, 666) }},
		{"nvm", func() Config { return NewNVMConfig(2, 2000, 666, 67) }},
		{"hybrid-cache", func() Config { return NewHybridConfig(2, 2000, 666, 67, 0.25) }},
		{"hybrid-flat", func() Config {
			c := NewHybridConfig(2, 2000, 666, 67, 0.25)
			c.HybridMode = HybridFlat
			return c
		}},
	}
	scheds := []struct {
		tag string
		s   SchedulerKind
	}{{"fcfs", FCFS}, {"frfcfs", FRFCFS}}
	pols := []struct {
		tag string
		p   PagePolicy
	}{{"open", OpenPage}, {"closed", ClosedPage}}
	for _, ty := range types {
		for _, sc := range scheds {
			for _, po := range pols {
				cfg := ty.mk()
				cfg.Scheduler = sc.s
				cfg.Policy = po.p
				cases = append(cases, goldenCase{
					name: ty.tag + "_" + sc.tag + "_" + po.tag,
					cfg:  cfg,
				})
			}
		}
	}
	// Refresh-enabled DRAM: the only path exercising TREFI/TRFC catch-up.
	refresh := NewDRAMConfig(2, 2000, 666)
	refresh.Timing.TREFI = 1560
	refresh.Timing.TRFC = 44
	cases = append(cases, goldenCase{name: "dram_refresh", cfg: refresh})
	// Channel-blocked mapping: the NUMA-style address decomposition.
	blocked := NewDRAMConfig(4, 2000, 666)
	blocked.Mapping = MapChannelBlocked
	cases = append(cases, goldenCase{name: "dram_blocked", cfg: blocked})
	// Queue depths that are not powers of two, so ring indexing cannot
	// lean on the default depth of 32.
	for _, qd := range []int{5, 24} {
		hc := NewHybridConfig(2, 2000, 666, 67, 0.25)
		hc.QueueDepth = qd
		nv := NewNVMConfig(2, 2000, 666, 67)
		nv.QueueDepth = qd
		cases = append(cases,
			goldenCase{name: fmt.Sprintf("hybrid-cache_frfcfs_open_q%d", qd), cfg: hc},
			goldenCase{name: fmt.Sprintf("nvm_frfcfs_open_q%d", qd), cfg: nv})
	}
	// A footprint-sized cache as the paper sweep builds: 332 lines in 4
	// ways is 83 sets, an odd set count.
	sets83 := NewHybridConfig(2, 2000, 666, 67, 0.25)
	sets83.CacheLines = 332
	cases = append(cases, goldenCase{name: "hybrid-cache_sets83", cfg: sets83})
	// A flat split whose ×1024 is not an integer (307.2).
	flat03 := NewHybridConfig(2, 2000, 666, 67, 0.3)
	flat03.HybridMode = HybridFlat
	cases = append(cases, goldenCase{name: "hybrid-flat_frac0.3", cfg: flat03})
	// Line indices at and above 2^32, with a prime set count (1021) large
	// enough for the hot region to hit.
	sets1021 := NewHybridConfig(2, 2000, 666, 67, 0.25)
	sets1021.CacheLines = 4084
	cases = append(cases,
		goldenCase{name: "hybrid-cache_sets1021_highlines", cfg: sets1021, highLines: true},
		goldenCase{name: "hybrid-flat_frac0.3_highlines", cfg: flat03, highLines: true})
	return cases
}

// highLineTrace lifts two of every three 4 KiB pages of the golden trace
// into address windows at 2^38 and 2^39 bytes (line indices from 2^32 and
// 2^33 with 64-byte lines), keeping the rest below.
func highLineTrace(events []trace.Event) []trace.Event {
	out := append([]trace.Event(nil), events...)
	for i := range out {
		out[i].Addr += (out[i].Addr >> 12 % 3) << 38
	}
	return out
}

// goldenFixture wraps a Result for JSON persistence. LifetimeYears can be
// +Inf (no tracked writes), which encoding/json refuses; it travels as a
// flag and is restored on load.
type goldenFixture struct {
	LifetimeInf bool   `json:"lifetime_inf,omitempty"`
	Result      Result `json:"result"`
}

func fixturePath(name string) string {
	return filepath.Join("testdata", "golden", name+".json")
}

func marshalFixture(t *testing.T, res *Result) []byte {
	t.Helper()
	fx := goldenFixture{Result: *res}
	if math.IsInf(fx.Result.LifetimeYears, 1) {
		fx.LifetimeInf = true
		fx.Result.LifetimeYears = 0
	}
	data, err := json.MarshalIndent(&fx, "", " ")
	if err != nil {
		t.Fatalf("marshal fixture: %v", err)
	}
	return append(data, '\n')
}

func loadFixture(t *testing.T, name string) *Result {
	t.Helper()
	data, err := os.ReadFile(fixturePath(name))
	if err != nil {
		t.Fatalf("golden fixture %s missing (regenerate with MEMSIM_UPDATE_GOLDEN=1): %v", name, err)
	}
	var fx goldenFixture
	if err := json.Unmarshal(data, &fx); err != nil {
		t.Fatalf("golden fixture %s corrupt: %v", name, err)
	}
	if fx.LifetimeInf {
		fx.Result.LifetimeYears = math.Inf(1)
	}
	return &fx.Result
}

// TestGoldenEquivalence replays the deterministic golden trace against every
// matrix cell through all three public replay paths and requires each to be
// bit-identical to the committed fixture.
func TestGoldenEquivalence(t *testing.T) {
	events := syntheticTrace(goldenTraceN, 77)
	high := highLineTrace(events)
	update := os.Getenv("MEMSIM_UPDATE_GOLDEN") != ""
	if update {
		if err := os.MkdirAll(filepath.Join("testdata", "golden"), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	pt, err := Prepare(events)
	if err != nil {
		t.Fatal(err)
	}
	highPT, err := Prepare(high)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range goldenCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			events, pt := events, pt
			if c.highLines {
				events, pt = high, highPT
			}
			res, err := replayOnce(c.cfg, events)
			if err != nil {
				t.Fatal(err)
			}
			if update {
				if err := os.WriteFile(fixturePath(c.name), marshalFixture(t, res), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want := loadFixture(t, c.name)
			if !reflect.DeepEqual(res, want) {
				t.Fatalf("fresh replay diverged from golden fixture %s:\n got %+v\nwant %+v", c.name, res, want)
			}
			// A replay on the trace every case shares must be identical,
			// not merely close.
			shared, err := RunPreparedTrace(c.cfg, pt)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(shared, want) {
				t.Fatalf("shared-trace replay diverged from golden fixture %s", c.name)
			}
			// Replaying again exercises state reuse (pooled engines, cached
			// partitions); still bit-identical.
			again, err := RunPreparedTrace(c.cfg, pt)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(again, want) {
				t.Fatalf("repeat replay diverged from golden fixture %s", c.name)
			}
		})
	}
}
