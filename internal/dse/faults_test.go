package dse

import (
	"testing"
)

// TestPaperFaultsPaperSubset pins the paper's survivorship mode: over the
// full 416-point space, PaperFaults crashes exactly the points its seeded
// draw selects, on every attempt, and at the paper's rate and seed 1 that is
// 47 points (the paper lost ~42).
func TestPaperFaultsPaperSubset(t *testing.T) {
	points := EnumerateSpace(SpaceParams{}) // full 416
	inj := PaperFaults(PaperFailureRate, 1)
	n := 0
	for _, p := range points {
		drawn := injectedFailure(p, PaperFailureRate, 1)
		crashed := inj.Decide(p, 1) == FaultCrash
		if drawn != crashed || (inj.Decide(p, 3) == FaultCrash) != crashed {
			t.Fatalf("point %s: drawn=%v crashed=%v", p.ID(), drawn, crashed)
		}
		if crashed {
			n++
		}
	}
	if n != 47 {
		t.Fatalf("PaperFaults crashed %d of 416 points, want 47", n)
	}
}

func TestFaultInjectorDecide(t *testing.T) {
	points := EnumerateSpace(tinySpace())
	inj := &FaultInjector{Rules: []FaultRule{
		{Class: FaultCrash, Rate: 0.3, Seed: 1},
		{Class: FaultTransient, Rate: 0.5, Seed: 2, Times: 1},
	}}
	for _, p := range points {
		a, b := inj.Decide(p, 1), inj.Decide(p, 1)
		if a != b {
			t.Fatalf("Decide not deterministic for %s: %s vs %s", p.ID(), a, b)
		}
		// Past its Times budget a transient rule stops firing.
		if a == FaultTransient && inj.Decide(p, 2) == FaultTransient {
			t.Fatalf("transient rule with Times=1 fired on attempt 2 for %s", p.ID())
		}
		// Persistent rules fire on every attempt.
		if a == FaultCrash && inj.Decide(p, 5) != FaultCrash {
			t.Fatalf("crash rule stopped firing on retry for %s", p.ID())
		}
	}
	var nilInj *FaultInjector
	if nilInj.Decide(points[0], 1) != FaultNone {
		t.Fatal("nil injector must inject nothing")
	}
	if nilInj.hasClass(FaultHang) {
		t.Fatal("nil injector has no classes")
	}
}

func TestFaultClassStringRoundTrip(t *testing.T) {
	for _, c := range []FaultClass{FaultNone, FaultCrash, FaultHang, FaultTransient, FaultCorrupt} {
		if got := parseFaultClass(c.String()); got != c {
			t.Fatalf("round trip %s -> %s", c, got)
		}
	}
	if parseFaultClass("garbage") != FaultNone {
		t.Fatal("unknown class name must parse to FaultNone")
	}
}
