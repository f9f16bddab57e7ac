package ml

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
)

// RandomForest is a bagged ensemble of fully grown CART trees with random
// feature subsetting at each split, mirroring scikit-learn's
// RandomForestRegressor used in the paper. Trees are trained in parallel.
type RandomForest struct {
	// NumTrees is the ensemble size (default 100, scikit-learn's default).
	NumTrees int
	// MaxDepth bounds each tree; <=0 grows to purity as in the paper's
	// description ("each tree is overfitted").
	MaxDepth int
	// MinSamplesLeaf is forwarded to the trees.
	MinSamplesLeaf int
	// MaxFeatures per split; <=0 uses all features (scikit-learn's
	// RandomForestRegressor default, where decorrelation comes from
	// bootstrap resampling alone).
	MaxFeatures int
	// Seed makes bootstrap draws deterministic.
	Seed int64
	// Workers caps training parallelism; <=0 uses GOMAXPROCS.
	Workers int

	trees  []*RegressionTree
	nDims  int
	fitted bool
}

// NewRandomForest returns a forest with scikit-learn-like defaults.
func NewRandomForest() *RandomForest {
	return &RandomForest{NumTrees: 100}
}

// Name implements Named.
func (f *RandomForest) Name() string { return "RF" }

// Fit trains the ensemble on bootstrap resamples of (X, y).
func (f *RandomForest) Fit(X [][]float64, y []float64) error {
	d, err := checkXY(X, y)
	if err != nil {
		return err
	}
	if f.NumTrees <= 0 {
		f.NumTrees = 100
	}
	maxFeat := f.MaxFeatures
	if maxFeat <= 0 || maxFeat > d {
		maxFeat = d
	}
	workers := f.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > f.NumTrees {
		workers = f.NumTrees
	}
	f.nDims = d
	f.trees = make([]*RegressionTree, f.NumTrees)
	n := len(X)

	errs := make([]error, f.NumTrees)
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for t := 0; t < f.NumTrees; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			rng := rand.New(rand.NewSource(f.Seed + int64(t)*7919))
			bx := make([][]float64, n)
			by := make([]float64, n)
			for i := 0; i < n; i++ {
				k := rng.Intn(n)
				bx[i] = X[k]
				by[i] = y[k]
			}
			tree := &RegressionTree{
				MaxDepth:       f.MaxDepth,
				MinSamplesLeaf: f.MinSamplesLeaf,
				MaxFeatures:    maxFeat,
				Seed:           f.Seed + int64(t)*104729,
			}
			errs[t] = tree.Fit(bx, by)
			f.trees[t] = tree
		}(t)
	}
	wg.Wait()
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	f.fitted = true
	return nil
}

// Predict returns the mean of the per-tree predictions.
func (f *RandomForest) Predict(x []float64) float64 {
	m, _ := f.PredictWithVariance(x)
	return m
}

// PredictWithVariance returns the ensemble mean and the across-tree
// variance, which the active-learning loop uses as an uncertainty signal.
func (f *RandomForest) PredictWithVariance(x []float64) (mean, variance float64) {
	if !f.fitted {
		panic(ErrNotFitted)
	}
	if len(x) != f.nDims {
		panic(fmt.Sprintf("ml: forest expects %d features, got %d", f.nDims, len(x)))
	}
	var sum, sq float64
	for _, t := range f.trees {
		p := t.Predict(x)
		sum += p
		sq += p * p
	}
	n := float64(len(f.trees))
	mean = sum / n
	variance = sq/n - mean*mean
	if variance < 0 {
		variance = 0 // guard against catastrophic cancellation
	}
	return mean, variance
}

// PredictStd returns the across-tree standard deviation at x.
func (f *RandomForest) PredictStd(x []float64) float64 {
	_, v := f.PredictWithVariance(x)
	return math.Sqrt(v)
}
