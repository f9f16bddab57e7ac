package dse

import (
	"fmt"
	"hash/fnv"
)

// FaultClass enumerates the failure modes the sweep engine knows how to
// contain. They mirror how the paper's NVMain runs actually die: hard
// crashes (segfaults), hangs that never terminate, transient environment
// errors that succeed on a retry, and runs that "complete" but emit garbage
// statistics.
type FaultClass int

const (
	// FaultNone means the point is healthy.
	FaultNone FaultClass = iota
	// FaultCrash panics inside the supervised worker (the segfault analogue).
	FaultCrash
	// FaultHang blocks until the per-point deadline cancels the attempt.
	FaultHang
	// FaultTransient fails with a retryable error; bounded retry with
	// backoff recovers it.
	FaultTransient
	// FaultCorrupt completes the simulation but poisons a metric with NaN,
	// exercising the result-validation quarantine.
	FaultCorrupt
	// FaultInvariant completes the simulation with metrics that are finite
	// (ValidateMetrics passes) yet physically impossible — bandwidth above
	// the channel bus peak — exercising the inter-stage invariant gate.
	FaultInvariant
)

// String names the class for logs, checkpoints, and failure summaries.
func (c FaultClass) String() string {
	switch c {
	case FaultNone:
		return "none"
	case FaultCrash:
		return "crash"
	case FaultHang:
		return "hang"
	case FaultTransient:
		return "transient"
	case FaultCorrupt:
		return "corrupt"
	case FaultInvariant:
		return ReasonInvariant
	default:
		return fmt.Sprintf("FaultClass(%d)", int(c))
	}
}

// parseFaultClass inverts String for checkpoint decoding; unknown names map
// to FaultNone.
func parseFaultClass(s string) FaultClass {
	switch s {
	case "crash":
		return FaultCrash
	case "hang":
		return FaultHang
	case "transient":
		return FaultTransient
	case "corrupt":
		return FaultCorrupt
	case ReasonInvariant:
		return FaultInvariant
	default:
		return FaultNone
	}
}

// FaultRule injects one fault class into a deterministic, seed-selected
// subset of design points.
type FaultRule struct {
	Class FaultClass
	// Rate in [0,1) selects roughly that fraction of points.
	Rate float64
	// Seed varies which points the rule selects; rules with distinct seeds
	// select independent subsets.
	Seed uint64
	// Times limits how many attempts the fault fires on (0 = every attempt).
	// A transient rule with Times=1 fails the first attempt and lets the
	// first retry succeed.
	Times int
}

// FaultInjector is a composable set of fault rules evaluated in order; the
// first matching rule decides the point's fate for a given attempt. The
// paper's survivorship mode is just one crash rule (see PaperFaults), and
// chaos tests layer several classes.
type FaultInjector struct {
	Rules []FaultRule
}

// Decide returns the fault class injected for point p on the given attempt
// (1-based), or FaultNone. Deterministic in (point ID, rule seed).
func (inj *FaultInjector) Decide(p DesignPoint, attempt int) FaultClass {
	if inj == nil {
		return FaultNone
	}
	for _, r := range inj.Rules {
		if r.Times > 0 && attempt > r.Times {
			continue
		}
		if injectedFailure(p, r.Rate, r.Seed) {
			return r.Class
		}
	}
	return FaultNone
}

// hasClass reports whether any rule injects the given class.
func (inj *FaultInjector) hasClass(c FaultClass) bool {
	if inj == nil {
		return false
	}
	for _, r := range inj.Rules {
		if r.Class == c {
			return true
		}
	}
	return false
}

// PaperFaults reproduces the paper's survivorship (≈42 of 416 NVMain runs
// segfaulting) as a single crash rule. It fails a deterministic share of
// about rate of the points, chosen by seed: 47 of the paper's 416 at
// PaperFailureRate with seed 1.
func PaperFaults(rate float64, seed uint64) *FaultInjector {
	return &FaultInjector{Rules: []FaultRule{{Class: FaultCrash, Rate: rate, Seed: seed}}}
}

// injectedFailure deterministically decides whether a rule selects a point.
func injectedFailure(p DesignPoint, rate float64, seed uint64) bool {
	if rate <= 0 {
		return false
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%d", p.ID(), seed)
	return float64(h.Sum64()%1_000_000)/1_000_000 < rate
}
