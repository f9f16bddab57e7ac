package ml

import (
	"math"

	"graphdse/internal/mat"
)

// MSE returns the mean squared error between true values y and predictions
// yhat, as in Eq. 1 of the paper. It panics when lengths differ or are zero.
func MSE(y, yhat []float64) float64 {
	mustSameLen(y, yhat)
	var s float64
	for i := range y {
		d := y[i] - yhat[i]
		s += d * d
	}
	return s / float64(len(y))
}

// RMSE returns the root mean squared error.
func RMSE(y, yhat []float64) float64 { return math.Sqrt(MSE(y, yhat)) }

// MAE returns the mean absolute error.
func MAE(y, yhat []float64) float64 {
	mustSameLen(y, yhat)
	var s float64
	for i := range y {
		s += math.Abs(y[i] - yhat[i])
	}
	return s / float64(len(y))
}

// R2 returns the coefficient of determination (Eq. 2 of the paper):
// 1 - Σ(y-ŷ)² / Σ(y-ȳ)². A perfect model scores 1.0; a model no better than
// predicting the mean scores 0. When y is constant, R2 returns 1 for a
// perfect fit and 0 otherwise (matching scikit-learn's convention of a
// degenerate denominator).
func R2(y, yhat []float64) float64 {
	mustSameLen(y, yhat)
	mean := mat.Mean(y)
	var ssRes, ssTot float64
	for i := range y {
		dr := y[i] - yhat[i]
		dt := y[i] - mean
		ssRes += dr * dr
		ssTot += dt * dt
	}
	if ssTot == 0 {
		if ssRes == 0 {
			return 1
		}
		return 0
	}
	return 1 - ssRes/ssTot
}

// Evaluation bundles the statistics the paper reports per model per metric.
type Evaluation struct {
	MSE  float64
	RMSE float64
	MAE  float64
	R2   float64
}

// Evaluate computes all summary statistics for predictions yhat against y.
func Evaluate(y, yhat []float64) Evaluation {
	return Evaluation{MSE: MSE(y, yhat), RMSE: RMSE(y, yhat), MAE: MAE(y, yhat), R2: R2(y, yhat)}
}

func mustSameLen(y, yhat []float64) {
	if len(y) == 0 || len(y) != len(yhat) {
		panic("ml: metric length mismatch or empty input")
	}
}
