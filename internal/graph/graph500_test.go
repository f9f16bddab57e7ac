package graph

import (
	"testing"
	"time"
)

func TestRunGraph500(t *testing.T) {
	// Deterministic clock: every call advances 1 ms.
	var tick int64
	clock := func() time.Time {
		tick++
		return time.Unix(0, tick*int64(time.Millisecond))
	}
	res, err := RunGraph500(8, 8, 4, 1, clock)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRoots != 4 || len(res.PerRoot) != 4 {
		t.Fatalf("roots = %d", res.NumRoots)
	}
	if res.HarmonicMeanTEPS <= 0 || res.MinTEPS <= 0 || res.MaxTEPS < res.MinTEPS {
		t.Fatalf("TEPS stats %+v", res)
	}
	// Harmonic mean lies between min and max.
	if res.HarmonicMeanTEPS < res.MinTEPS || res.HarmonicMeanTEPS > res.MaxTEPS {
		t.Fatalf("harmonic mean %v outside [%v, %v]", res.HarmonicMeanTEPS, res.MinTEPS, res.MaxTEPS)
	}
	if res.String() == "" {
		t.Fatal("empty render")
	}
}

func TestRunGraph500Validation(t *testing.T) {
	if _, err := RunGraph500(8, 8, 0, 1, nil); err == nil {
		t.Fatal("expected error for zero roots")
	}
	if _, err := RunGraph500(0, 8, 1, 1, nil); err == nil {
		t.Fatal("expected error for bad scale")
	}
}

func TestRunGraph500RealClock(t *testing.T) {
	res, err := RunGraph500(7, 4, 2, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.HarmonicMeanTEPS <= 0 {
		t.Fatalf("TEPS = %v", res.HarmonicMeanTEPS)
	}
}
