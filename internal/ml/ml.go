// Package ml implements the machine-learning surrogates used for memory
// design-space exploration: linear regression, ridge regression, ε-support
// vector regression (SMO dual solver, RBF/linear/polynomial kernels), CART
// regression trees, random forests, gradient-boosted trees, and a k-nearest
// neighbour baseline, together with scaling, metrics, a train/test split and
// an active-learning loop.
//
// All models implement the Regressor interface. Features are presented as
// [][]float64 (one row per sample); targets as []float64. Models are
// deterministic given their Seed parameter, which makes experiment tables
// reproducible.
package ml

import (
	"errors"
	"fmt"
)

// Regressor is a supervised model mapping a feature vector to a scalar.
type Regressor interface {
	// Fit trains the model on X (n samples × d features) and y (n targets).
	Fit(X [][]float64, y []float64) error
	// Predict returns the model output for a single feature vector.
	Predict(x []float64) float64
}

// Named is implemented by models that expose a human-readable name for
// report tables.
type Named interface {
	Name() string
}

// ErrNotFitted is returned by Predict paths that require a prior Fit.
var ErrNotFitted = errors.New("ml: model is not fitted")

// ErrBadInput is returned when training data is empty or ragged.
var ErrBadInput = errors.New("ml: invalid training input")

// PredictBatch applies r.Predict to every row of X.
func PredictBatch(r Regressor, X [][]float64) []float64 {
	out := make([]float64, len(X))
	for i, x := range X {
		out[i] = r.Predict(x)
	}
	return out
}

// checkXY validates that X is a non-empty rectangular matrix whose row count
// matches len(y), returning the feature dimension.
func checkXY(X [][]float64, y []float64) (int, error) {
	if len(X) == 0 || len(X) != len(y) {
		return 0, fmt.Errorf("%w: %d samples, %d targets", ErrBadInput, len(X), len(y))
	}
	d := len(X[0])
	if d == 0 {
		return 0, fmt.Errorf("%w: zero-dimensional features", ErrBadInput)
	}
	for i, row := range X {
		if len(row) != d {
			return 0, fmt.Errorf("%w: row %d has %d features, want %d", ErrBadInput, i, len(row), d)
		}
	}
	return d, nil
}

// copyMatrix deep-copies a feature matrix.
func copyMatrix(X [][]float64) [][]float64 {
	out := make([][]float64, len(X))
	for i, row := range X {
		out[i] = append([]float64(nil), row...)
	}
	return out
}
