package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMean(t *testing.T) {
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Fatalf("Mean = %v", got)
	}
	if got := Mean(nil); got != 0 {
		t.Fatalf("Mean(nil) = %v", got)
	}
}

func TestVarianceStdDev(t *testing.T) {
	v := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Variance(v); math.Abs(got-4) > 1e-12 {
		t.Fatalf("Variance = %v, want 4", got)
	}
	if got := Variance([]float64{5}); got != 0 {
		t.Fatalf("Variance singleton = %v", got)
	}
}

// Property: min <= mean <= max and variance >= 0.
func TestPropMomentBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		v := randomVec(rng, 1+rng.Intn(64))
		lo, hi := v[0], v[0]
		for _, x := range v {
			lo, hi = math.Min(lo, x), math.Max(hi, x)
		}
		m := Mean(v)
		return lo <= m+1e-12 && m <= hi+1e-12 && Variance(v) >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
