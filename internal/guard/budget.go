package guard

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Budget is the resource envelope a governed pipeline runs inside. The zero
// value disables governance entirely.
type Budget struct {
	// HeapSoftBytes is the heap soft limit: when runtime.ReadMemStats
	// reports HeapAlloc above it, the governor escalates its pressure level
	// and consumers step worker counts down. 0 disables memory governance.
	HeapSoftBytes uint64
	// SampleEvery is the heap sampling interval (default 100ms).
	SampleEvery time.Duration
	// MaxPressure caps the pressure level; each level halves permitted
	// worker counts (default 4, i.e. down to 1/16 of requested).
	MaxPressure int
}

func (b *Budget) fill() {
	if b.SampleEvery <= 0 {
		b.SampleEvery = 100 * time.Millisecond
	}
	if b.MaxPressure <= 0 {
		b.MaxPressure = 4
	}
}

// Enabled reports whether the budget governs anything.
func (b Budget) Enabled() bool { return b.HeapSoftBytes > 0 }

// Downshift records one graceful degradation decision: a resource that was
// stepped down instead of letting the pipeline die.
type Downshift struct {
	// Stage names the consumer that degraded ("sweep", "train", "convert",
	// "governor" for pressure escalations).
	Stage string
	// Resource names what was reduced ("workers", "pressure").
	Resource string
	// From and To are the resource's value before and after.
	From, To int
	// Reason explains the trigger (heap sample vs budget).
	Reason string
	// Elapsed is the time since the governor started.
	Elapsed time.Duration
}

// String renders the downshift as one run-report log line.
func (d Downshift) String() string {
	return fmt.Sprintf("downshift %s %s %d -> %d (%s, t=%v)",
		d.Stage, d.Resource, d.From, d.To, d.Reason, d.Elapsed.Round(time.Millisecond))
}

// Governor samples the process against a Budget and publishes a pressure
// level that consumers consult to step parallelism down. All methods are
// safe on a nil *Governor (no governance) and for concurrent use.
type Governor struct {
	budget   Budget
	start    time.Time
	pressure atomic.Int32
	peakHeap atomic.Uint64

	mu         sync.Mutex
	reason     string
	downshifts []Downshift

	stop     chan struct{}
	stopOnce sync.Once
	started  atomic.Bool
	done     chan struct{}
}

// NewGovernor builds a governor for the budget; call Start to begin
// sampling. A disabled budget yields a governor that never escalates (but
// still accepts SignalPressure and Record).
func NewGovernor(b Budget) *Governor {
	b.fill()
	return &Governor{
		budget: b,
		start:  time.Now(),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
}

// Start launches the heap sampler; it stops when ctx is done or Stop is
// called. Start is a no-op for a nil governor or a disabled budget.
func (g *Governor) Start(ctx context.Context) {
	if g == nil || !g.budget.Enabled() || !g.started.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer close(g.done)
		t := time.NewTicker(g.budget.SampleEvery)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-g.stop:
				return
			case <-t.C:
				g.sample()
			}
		}
	}()
}

// Stop halts the sampler and waits for it to exit.
func (g *Governor) Stop() {
	if g == nil {
		return
	}
	g.stopOnce.Do(func() { close(g.stop) })
	if g.started.Load() {
		<-g.done
	}
}

// sample reads the heap and escalates pressure when it exceeds the soft
// limit. Escalation triggers a GC in the hope of shedding garbage before
// the next sample; the step-down of worker counts is what actually reduces
// the live set.
func (g *Governor) sample() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	for {
		peak := g.peakHeap.Load()
		if ms.HeapAlloc <= peak || g.peakHeap.CompareAndSwap(peak, ms.HeapAlloc) {
			break
		}
	}
	if ms.HeapAlloc <= g.budget.HeapSoftBytes {
		return
	}
	reason := fmt.Sprintf("heap %s > budget %s", fmtBytes(ms.HeapAlloc), fmtBytes(g.budget.HeapSoftBytes))
	g.escalate(reason)
	runtime.GC()
}

// SignalPressure escalates the pressure level by one, as a heap sample
// breaching the budget would. It lets callers plumb external pressure
// signals (cgroup events, operator nudges) into the same degradation path.
func (g *Governor) SignalPressure(reason string) {
	if g == nil {
		return
	}
	g.escalate(reason)
}

func (g *Governor) escalate(reason string) {
	for {
		p := g.pressure.Load()
		if int(p) >= g.budget.MaxPressure {
			return
		}
		if g.pressure.CompareAndSwap(p, p+1) {
			g.mu.Lock()
			g.reason = reason
			g.mu.Unlock()
			g.Record(Downshift{
				Stage: "governor", Resource: "pressure",
				From: int(p), To: int(p + 1), Reason: reason,
			})
			return
		}
	}
}

// Pressure returns the current pressure level (0 = unconstrained).
func (g *Governor) Pressure() int {
	if g == nil {
		return 0
	}
	return int(g.pressure.Load())
}

// PressureReason returns the trigger of the latest escalation.
func (g *Governor) PressureReason() string {
	if g == nil {
		return ""
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.reason
}

// Limit returns the worker count currently permitted for a requested
// count: halved once per pressure level, never below 1. Pure — use Workers
// to also record the decision.
func (g *Governor) Limit(requested int) int {
	if g == nil || requested <= 1 {
		return requested
	}
	limited := requested >> uint(g.Pressure())
	if limited < 1 {
		limited = 1
	}
	return limited
}

// Workers applies Limit for a named stage and records the downshift when
// the request was reduced.
func (g *Governor) Workers(stage string, requested int) int {
	if g == nil {
		return requested
	}
	limited := g.Limit(requested)
	if limited < requested {
		g.Record(Downshift{
			Stage: stage, Resource: "workers",
			From: requested, To: limited, Reason: g.PressureReason(),
		})
	}
	return limited
}

// StreamingForced reports whether consumers with a choice between a
// materializing and a streaming path must take the streaming one.
func (g *Governor) StreamingForced() bool { return g.Pressure() > 0 }

// Record appends a downshift to the run report.
func (g *Governor) Record(d Downshift) {
	if g == nil {
		return
	}
	if d.Elapsed == 0 {
		d.Elapsed = time.Since(g.start)
	}
	g.mu.Lock()
	g.downshifts = append(g.downshifts, d)
	g.mu.Unlock()
}

// Downshifts returns a copy of every recorded degradation, in order.
func (g *Governor) Downshifts() []Downshift {
	if g == nil {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]Downshift, len(g.downshifts))
	copy(out, g.downshifts)
	return out
}

// PeakHeapBytes returns the largest sampled heap.
func (g *Governor) PeakHeapBytes() uint64 {
	if g == nil {
		return 0
	}
	return g.peakHeap.Load()
}

// fmtBytes renders a byte count with a binary unit.
func fmtBytes(b uint64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.1fGiB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%dB", b)
	}
}
