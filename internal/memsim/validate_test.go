package memsim

import (
	"errors"
	"math"
	"testing"

	"graphdse/internal/trace"
)

func validResult() *Result {
	return &Result{
		AvgPowerPerChannel:  1.2,
		AvgBandwidthPerBank: 300,
		AvgLatency:          25,
		AvgTotalLatency:     40,
		AvgReadsPerChannel:  1000,
		AvgWritesPerChannel: 500,
	}
}

func TestValidateMetrics(t *testing.T) {
	if err := validResult().ValidateMetrics(); err != nil {
		t.Fatalf("valid metrics rejected: %v", err)
	}
	poison := []func(*Result){
		func(r *Result) { r.AvgPowerPerChannel = math.NaN() },
		func(r *Result) { r.AvgBandwidthPerBank = math.Inf(1) },
		func(r *Result) { r.AvgLatency = math.Inf(-1) },
		func(r *Result) { r.AvgWritesPerChannel = -1 },
	}
	for i, f := range poison {
		r := validResult()
		f(r)
		err := r.ValidateMetrics()
		if err == nil {
			t.Fatalf("case %d: poisoned metrics passed validation", i)
		}
		if !errors.Is(err, ErrInvalidMetrics) {
			t.Fatalf("case %d: error %v does not wrap ErrInvalidMetrics", i, err)
		}
	}
	// An infinite lifetime estimate (write-free run) is diagnostic, not an
	// ML target, and must not trip the gate.
	r := validResult()
	r.LifetimeYears = math.Inf(1)
	if err := r.ValidateMetrics(); err != nil {
		t.Fatalf("infinite lifetime wrongly quarantined: %v", err)
	}
}

// TestRunTraceValidatesMetrics is the regression guard for the silent-
// garbage path: a replay must gate every result through ValidateMetrics, so
// whatever it returns is finite and non-negative by construction.
func TestRunTraceValidatesMetrics(t *testing.T) {
	events := []trace.Event{
		{Cycle: 0, Addr: 0x0, Op: trace.Read},
		{Cycle: 10, Addr: 0x40, Op: trace.Write},
		{Cycle: 20, Addr: 0x80, Op: trace.Read},
	}
	res, err := replayOnce(NewDRAMConfig(2, 2000, 400), events)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.ValidateMetrics(); err != nil {
		t.Fatalf("replay returned invalid metrics: %v", err)
	}
}
