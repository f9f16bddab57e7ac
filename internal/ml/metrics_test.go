package ml

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMSE(t *testing.T) {
	y := []float64{1, 2, 3}
	yhat := []float64{1, 2, 3}
	if got := MSE(y, yhat); got != 0 {
		t.Fatalf("MSE perfect = %v", got)
	}
	if got := MSE([]float64{0, 0}, []float64{3, 4}); got != 12.5 {
		t.Fatalf("MSE = %v, want 12.5", got)
	}
}

func TestRMSEAndMAE(t *testing.T) {
	y := []float64{0, 0, 0, 0}
	yhat := []float64{2, -2, 2, -2}
	if got := RMSE(y, yhat); got != 2 {
		t.Fatalf("RMSE = %v", got)
	}
	if got := MAE(y, yhat); got != 2 {
		t.Fatalf("MAE = %v", got)
	}
}

func TestR2(t *testing.T) {
	y := []float64{1, 2, 3, 4}
	if got := R2(y, y); got != 1 {
		t.Fatalf("R2 perfect = %v", got)
	}
	mean := []float64{2.5, 2.5, 2.5, 2.5}
	if got := R2(y, mean); got != 0 {
		t.Fatalf("R2 mean-predictor = %v, want 0", got)
	}
	// Worse than the mean predictor gives negative R2.
	if got := R2(y, []float64{4, 3, 2, 1}); got >= 0 {
		t.Fatalf("R2 reversed = %v, want negative", got)
	}
}

func TestR2ConstantTarget(t *testing.T) {
	y := []float64{5, 5, 5}
	if got := R2(y, y); got != 1 {
		t.Fatalf("R2 constant perfect = %v", got)
	}
	if got := R2(y, []float64{5, 5, 6}); got != 0 {
		t.Fatalf("R2 constant imperfect = %v", got)
	}
}

func TestEvaluateBundle(t *testing.T) {
	e := Evaluate([]float64{0, 2}, []float64{0, 0})
	if e.MSE != 2 || e.MAE != 1 || math.Abs(e.RMSE-math.Sqrt2) > 1e-12 {
		t.Fatalf("Evaluate = %+v", e)
	}
}

func TestMetricsPanicOnMismatch(t *testing.T) {
	mustPanicML(t, func() { MSE([]float64{1}, []float64{1, 2}) })
	mustPanicML(t, func() { R2(nil, nil) })
}

// Property: R2 of a perfect prediction is 1 and MSE >= 0 always.
func TestPropMetricInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(32)
		y := make([]float64, n)
		yh := make([]float64, n)
		for i := range y {
			y[i] = rng.NormFloat64()
			yh[i] = rng.NormFloat64()
		}
		return MSE(y, yh) >= 0 && R2(y, y) == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: RMSE² == MSE.
func TestPropRMSESquared(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(16)
		y := make([]float64, n)
		yh := make([]float64, n)
		for i := range y {
			y[i] = rng.NormFloat64()
			yh[i] = rng.NormFloat64()
		}
		r := RMSE(y, yh)
		return math.Abs(r*r-MSE(y, yh)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func mustPanicML(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f()
}
