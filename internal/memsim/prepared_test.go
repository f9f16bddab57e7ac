package memsim

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"graphdse/internal/trace"
)

// preparedConfigs covers every memory organization so the equivalence
// theorems below hold across the full design space, not just DRAM.
func preparedConfigs() map[string]Config {
	hybrid := NewHybridConfig(2, 2000, 400, 36, 0.125)
	flat := NewHybridConfig(4, 2000, 400, 36, 0.25)
	flat.HybridMode = HybridFlat
	return map[string]Config{
		"dram":   NewDRAMConfig(2, 2000, 400),
		"nvm":    NewNVMConfig(4, 2000, 400, 36),
		"hybrid": hybrid,
		"flat":   flat,
	}
}

// TestRunPreparedMatchesRun is the core decode-once guarantee: replaying a
// PreparedTrace must yield a Result identical to the validate-per-run slice
// path, for every memory organization.
func TestRunPreparedMatchesRun(t *testing.T) {
	events := syntheticTrace(4000, 7)
	pt, err := Prepare(events)
	if err != nil {
		t.Fatal(err)
	}
	for name, cfg := range preparedConfigs() {
		want := runCfg(t, cfg, events)
		got, err := RunPreparedTrace(cfg, pt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: RunPrepared result differs from Run:\n got %+v\nwant %+v", name, got, want)
		}
	}
}

// TestRunSourceMatchesRun: streaming a trace through RunSource must be
// indistinguishable from running the equivalent slice.
func TestRunSourceMatchesRun(t *testing.T) {
	events := syntheticTrace(4000, 8)
	for name, cfg := range preparedConfigs() {
		want := runCfg(t, cfg, events)
		got, err := RunTraceSource(cfg, trace.NewSliceSource(events))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: RunSource result differs from Run:\n got %+v\nwant %+v", name, got, want)
		}
	}
}

// TestRunSourceFromText streams straight from NVMain text — the cmd/memsim
// path — and must match the parse-then-run pipeline.
func TestRunSourceFromText(t *testing.T) {
	events := syntheticTrace(1000, 9)
	var buf bytes.Buffer
	if err := trace.WriteNVMain(&buf, events); err != nil {
		t.Fatal(err)
	}
	cfg := NewDRAMConfig(2, 2000, 400)
	want := runCfg(t, cfg, events)
	got, err := RunTraceSource(cfg, trace.NewNVMainSource(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("RunSource over NVMain text differs from slice path")
	}
}

func TestPrepareSourceMatchesPrepare(t *testing.T) {
	events := syntheticTrace(3000, 10)
	want, err := Prepare(events)
	if err != nil {
		t.Fatal(err)
	}
	got, err := PrepareSource(trace.NewSliceSource(events))
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != want.Len() || got.Stats() != want.Stats() {
		t.Fatalf("PrepareSource: len=%d stats=%+v, want len=%d stats=%+v",
			got.Len(), got.Stats(), want.Len(), want.Stats())
	}
	cfg := NewDRAMConfig(2, 2000, 400)
	a, err := RunPreparedTrace(cfg, got)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunPreparedTrace(cfg, want)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("PrepareSource and Prepare replay differently")
	}
}

func TestPreparedEventsRoundTrip(t *testing.T) {
	events := syntheticTrace(500, 11)
	pt, err := Prepare(events)
	if err != nil {
		t.Fatal(err)
	}
	back := pt.Events()
	if len(back) != len(events) {
		t.Fatalf("Events() len = %d, want %d", len(back), len(events))
	}
	for i := range back {
		// Thread is not retained; everything else must survive.
		if back[i].Cycle != events[i].Cycle || back[i].Op != events[i].Op || back[i].Addr != events[i].Addr {
			t.Fatalf("event %d: %+v vs %+v", i, back[i], events[i])
		}
	}
}

func TestPrepareRejectsBadEvent(t *testing.T) {
	if _, err := Prepare([]trace.Event{{Cycle: 1, Op: 'Q'}}); err == nil {
		t.Fatal("expected bad-op error")
	}
}

func TestRunPreparedEmpty(t *testing.T) {
	pt, err := Prepare(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunPreparedTrace(NewDRAMConfig(2, 2000, 400), pt); err != ErrEmptyTrace {
		t.Fatalf("err = %v, want ErrEmptyTrace", err)
	}
}

func TestRunSourceEmpty(t *testing.T) {
	if _, err := RunTraceSource(NewDRAMConfig(2, 2000, 400), trace.NewSliceSource(nil)); err != ErrEmptyTrace {
		t.Fatal("expected ErrEmptyTrace")
	}
}

func TestRunSourceRejectsBadEvent(t *testing.T) {
	bad := []trace.Event{{Cycle: 1, Op: 'Q'}}
	if _, err := RunTraceSource(NewDRAMConfig(2, 2000, 400), trace.NewSliceSource(bad)); err == nil {
		t.Fatal("expected bad-op error")
	}
}

// TestPreparedImmutableUnderConcurrentReplay: one PreparedTrace shared by
// concurrent simulators must give each the same answer (run with -race to
// also prove there are no writes).
func TestPreparedImmutableUnderConcurrentReplay(t *testing.T) {
	events := syntheticTrace(2000, 12)
	pt, err := Prepare(events)
	if err != nil {
		t.Fatal(err)
	}
	cfg := NewHybridConfig(2, 2000, 400, 36, 0.125)
	want, err := RunPreparedTrace(cfg, pt)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		go func() {
			got, err := RunPreparedTrace(cfg, pt)
			if err == nil && !reflect.DeepEqual(got, want) {
				err = errDiverged
			}
			errs <- err
		}()
	}
	for g := 0; g < goroutines; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

var errDiverged = &divergedError{}

type divergedError struct{}

func (*divergedError) Error() string { return "concurrent replay diverged" }

// TestRunPreparedAllocBound pins down the sweep hot path's allocation
// discipline for every device mode: once the trace's partition is cached and
// the engine pool is warm, a replay allocates only the result snapshot
// (Result, per-channel stats, cloned PerBankBytes, goroutine bookkeeping) —
// a small constant, independent of trace length and far below one
// allocation per event. The pre-refactor engine allocated the per-channel
// request queues, bank arrays, and endurance counters on every design point
// (~megabytes per replay). The bound leaves room for the race detector's
// sync.Pool, which drops a random share of released states; a channel
// replay over held state — DRAM cache, its reciprocal and the flat-hybrid
// bank remap table included — must allocate nothing at all.
func TestRunPreparedAllocBound(t *testing.T) {
	events := syntheticTrace(4096, 13)
	pt, err := Prepare(events)
	if err != nil {
		t.Fatal(err)
	}
	names, cases := benchConfigs()
	for _, name := range names {
		sim, err := New(cases[name])
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sim.RunPrepared(pt); err != nil { // warm partition cache + pool
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := sim.RunPrepared(pt); err != nil {
				panic(err)
			}
		})
		if allocs > 32 {
			t.Fatalf("%s: RunPrepared allocated %.0f times for %d events; want the constant snapshot cost (<=32)", name, allocs, len(events))
		}
		st := sim.acquireState()
		part := &pt.partitionFor(sim.mapper).chans[0]
		ratio := sim.cfg.CtrlFreqMHz / sim.cfg.CPUFreqMHz
		engine := testing.AllocsPerRun(5, func() {
			e := newChannelEngine(sim, st)
			rs := newRunState()
			e.run(part, ratio, &rs, math.MaxInt)
		})
		releaseEngineState(st)
		if engine != 0 {
			t.Fatalf("%s: a channel replay over held engine state allocated %.1f times; want 0", name, engine)
		}
	}
}
