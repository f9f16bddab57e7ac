package dse

import (
	"errors"
	"strings"
	"testing"

	"graphdse/internal/memsim"
)

// gateSpace spans two channel counts so the metamorphic spot-checks have
// pairs to compare.
func gateSpace() SpaceParams {
	return SpaceParams{
		CPUFreqsMHz:  []float64{2000},
		CtrlFreqsMHz: []float64{400, 666},
		Channels:     []int{2, 4},
		Fractions:    []float64{0.25},
	}
}

func TestInvariantGateQuarantinesImpossibleMetrics(t *testing.T) {
	events := smallTrace(t)
	points := EnumerateSpace(gateSpace())
	records, err := sweepEvents(events, points, SweepOptions{
		Faults: &FaultInjector{Rules: []FaultRule{{Class: FaultInvariant, Rate: 0.4, Seed: 3}}},
	})
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	// The poison survives the sweep's own NaN gate…
	poisonedBefore := 0
	for _, r := range records {
		if r.Failed {
			t.Fatalf("%s failed before the gate: %v", r.Point.ID(), r.Err)
		}
		if r.Result.AvgBandwidthPerBank > memsim.PeakBandwidthPerBankMBs(&r.Result.Config) {
			poisonedBefore++
		}
	}
	if poisonedBefore == 0 {
		t.Fatal("fault injection produced no physically impossible records; raise the rate")
	}

	rep, err := ApplyInvariantGate(records, int64(len(events)))
	if err != nil {
		t.Fatalf("gate: %v", err)
	}
	if rep.Quarantined != poisonedBefore {
		t.Fatalf("quarantined %d, want %d", rep.Quarantined, poisonedBefore)
	}
	if rep.Checked != len(points) || rep.Survivors != len(points)-poisonedBefore {
		t.Fatalf("report = %+v", rep)
	}
	if rep.MetamorphicChecks == 0 {
		t.Fatal("no metamorphic spot-checks ran over a two-channel-count space")
	}

	// Violators land in the failure log under ReasonInvariant, with the
	// cause preserved…
	quarantined := 0
	for _, r := range records {
		if !r.Failed {
			continue
		}
		quarantined++
		if r.FaultClass != FaultInvariant {
			t.Fatalf("%s quarantined with class %v", r.Point.ID(), r.FaultClass)
		}
		if !errors.Is(r.Err, memsim.ErrPhysicalInvariant) {
			t.Fatalf("%s: cause lost: %v", r.Point.ID(), r.Err)
		}
		if r.Result != nil {
			t.Fatalf("%s keeps a poisoned result after quarantine", r.Point.ID())
		}
	}
	if quarantined != poisonedBefore {
		t.Fatalf("failure log has %d invariant records, want %d", quarantined, poisonedBefore)
	}
	log := BuildFailureLog(records)
	for _, f := range log {
		if f.Class != ReasonInvariant {
			t.Fatalf("failure log class %q, want %q", f.Class, ReasonInvariant)
		}
	}

	// …and the workflow continues: survivors clear MinSurvivors and still
	// build a dataset.
	if err := CheckSurvivors(records, rep.Survivors); err != nil {
		t.Fatalf("survivors fail their own bar: %v", err)
	}
	ds, err := BuildDataset(records)
	if err != nil {
		t.Fatalf("dataset after gate: %v", err)
	}
	if ds.Len() != rep.Survivors {
		t.Fatalf("dataset rows = %d, want %d", ds.Len(), rep.Survivors)
	}
	// The round-trip survives the checkpoint class vocabulary too.
	if got := parseFaultClass(FaultInvariant.String()); got != FaultInvariant {
		t.Fatalf("parseFaultClass round-trip = %v", got)
	}
}

func TestInvariantGateCleanSweepUntouched(t *testing.T) {
	events := smallTrace(t)
	points := EnumerateSpace(gateSpace())
	records, err := sweepEvents(events, points, SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ApplyInvariantGate(records, int64(len(events)))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Quarantined != 0 || rep.Survivors != len(points) {
		t.Fatalf("healthy sweep damaged by the gate: %+v", rep)
	}
}

func TestCheckSurvivorsContract(t *testing.T) {
	events := smallTrace(t)
	points := EnumerateSpace(gateSpace())
	records, err := sweepEvents(events, points, SweepOptions{
		Faults: &FaultInjector{Rules: []FaultRule{{Class: FaultInvariant, Rate: 0.4, Seed: 3}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ApplyInvariantGate(records, int64(len(events)))
	if err != nil {
		t.Fatal(err)
	}
	// Demanding more survivors than remain reports the structured failure,
	// with the quarantine visible in its class counts.
	err = CheckSurvivors(records, rep.Survivors+1)
	var sf *SweepFailureError
	if !errors.As(err, &sf) {
		t.Fatalf("err = %v, want *SweepFailureError", err)
	}
	if sf.ByClass[ReasonInvariant] != rep.Quarantined {
		t.Fatalf("ByClass = %v, want %d invariant", sf.ByClass, rep.Quarantined)
	}
	if !strings.Contains(sf.Error(), ReasonInvariant) {
		t.Fatalf("error does not surface the class: %v", sf)
	}
	// Everything quarantined → ErrAllFailed.
	for i := range records {
		records[i].Failed = true
	}
	if err := CheckSurvivors(records, 0); !errors.Is(err, ErrAllFailed) {
		t.Fatalf("err = %v, want ErrAllFailed", err)
	}
}
