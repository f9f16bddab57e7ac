package ml

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// syntheticFriedman is a smooth nonlinear regression surface used to compare
// model families.
func syntheticFriedman(n int, seed int64) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		X[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()}
		y[i] = math.Sin(math.Pi*X[i][0]*X[i][1]) + 2*(X[i][2]-0.5)*(X[i][2]-0.5) + X[i][3]
	}
	return X, y
}

func TestLinearRegressionExactRecovery(t *testing.T) {
	X, y := syntheticLinear(50, 4, 2, 0)
	var m LinearRegression
	if err := m.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	pred := PredictBatch(&m, X)
	if r2 := R2(y, pred); r2 < 1-1e-9 {
		t.Fatalf("R2 = %v, want ~1", r2)
	}
	if math.Abs(m.Intercept-0.5) > 1e-9 {
		t.Fatalf("Intercept = %v, want 0.5", m.Intercept)
	}
}

func TestLinearRegressionRankDeficientFallsBackToRidge(t *testing.T) {
	// Second column is constant → collinear with the intercept.
	X := [][]float64{{1, 5}, {2, 5}, {3, 5}, {4, 5}}
	y := []float64{2, 4, 6, 8}
	var m LinearRegression
	if err := m.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	pred := PredictBatch(&m, X)
	if r2 := R2(y, pred); r2 < 0.999 {
		t.Fatalf("rank-deficient fit R2 = %v", r2)
	}
}

func TestLinearRegressionErrors(t *testing.T) {
	var m LinearRegression
	if err := m.Fit(nil, nil); err == nil {
		t.Fatal("expected error on empty input")
	}
	if err := m.Fit([][]float64{{1}, {2, 3}}, []float64{1, 2}); err == nil {
		t.Fatal("expected error on ragged rows")
	}
	mustPanicML(t, func() { m.Predict([]float64{1}) }) // not fitted
	if err := m.Fit([][]float64{{1}, {2}}, []float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	mustPanicML(t, func() { m.Predict([]float64{1, 2}) }) // wrong dim
}

func TestRidgeShrinks(t *testing.T) {
	X, y := syntheticLinear(60, 3, 4, 0.01)
	small := &Ridge{Lambda: 1e-6}
	big := &Ridge{Lambda: 1e4}
	if err := small.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if err := big.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	var ns, nb float64
	for j := range small.Coef {
		ns += small.Coef[j] * small.Coef[j]
		nb += big.Coef[j] * big.Coef[j]
	}
	if nb >= ns {
		t.Fatalf("large lambda should shrink coefficients: %v vs %v", nb, ns)
	}
}

func TestRidgeNegativeLambda(t *testing.T) {
	m := &Ridge{Lambda: -1}
	if err := m.Fit([][]float64{{1}, {2}}, []float64{1, 2}); err == nil {
		t.Fatal("expected error for negative lambda")
	}
}

func TestRidgeMatchesOLSAtZeroLambda(t *testing.T) {
	X, y := syntheticLinear(40, 3, 9, 0)
	var ols LinearRegression
	r := &Ridge{Lambda: 0}
	if err := ols.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if err := r.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	for j := range ols.Coef {
		if math.Abs(ols.Coef[j]-r.Coef[j]) > 1e-5 {
			t.Fatalf("coef %d: OLS %v vs ridge %v", j, ols.Coef[j], r.Coef[j])
		}
	}
}

func TestSVRFitsLinearFunction(t *testing.T) {
	X, y := syntheticLinear(80, 2, 3, 0)
	m := NewSVR()
	m.Seed = 1
	if err := m.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	pred := PredictBatch(m, X)
	if r2 := R2(y, pred); r2 < 0.99 {
		t.Fatalf("SVR train R2 = %v", r2)
	}
}

func TestSVRFitsNonlinearFunction(t *testing.T) {
	X, y := syntheticFriedman(150, 5)
	trX, trY, teX, teY, err := TrainTestSplit(X, y, 0.2, 11)
	if err != nil {
		t.Fatal(err)
	}
	m := NewSVR()
	m.Seed = 2
	if err := m.Fit(trX, trY); err != nil {
		t.Fatal(err)
	}
	pred := PredictBatch(m, teX)
	if r2 := R2(teY, pred); r2 < 0.9 {
		t.Fatalf("SVR test R2 = %v, want > 0.9", r2)
	}
}

func TestSVRRespectsEpsilonTube(t *testing.T) {
	// With a huge tube every residual fits inside → all beta stay 0 and the
	// model predicts a constant (the bias).
	X, y := syntheticLinear(30, 2, 7, 0)
	m := NewSVR()
	m.Epsilon = 1e6
	if err := m.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if m.NumSupportVectors() != 0 {
		t.Fatalf("expected no support vectors, got %d", m.NumSupportVectors())
	}
	p1 := m.Predict(X[0])
	p2 := m.Predict(X[1])
	if p1 != p2 {
		t.Fatalf("constant model expected, got %v vs %v", p1, p2)
	}
}

func TestSVRBetaSumsToZeroAndBounded(t *testing.T) {
	X, y := syntheticFriedman(60, 8)
	m := NewSVR()
	m.C = 5
	m.Seed = 3
	if err := m.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, b := range m.Beta {
		sum += b
		if math.Abs(b) > m.C+1e-9 {
			t.Fatalf("beta %v exceeds C=%v", b, m.C)
		}
	}
	if math.Abs(sum) > 1e-8 {
		t.Fatalf("sum beta = %v, want 0", sum)
	}
}

func TestSVRParameterValidation(t *testing.T) {
	X, y := syntheticLinear(10, 2, 1, 0)
	m := NewSVR()
	m.C = -1
	if err := m.Fit(X, y); err == nil {
		t.Fatal("expected error for negative C")
	}
	m = NewSVR()
	m.Epsilon = -0.1
	if err := m.Fit(X, y); err == nil {
		t.Fatal("expected error for negative epsilon")
	}
	mustPanicML(t, func() { NewSVR().Predict([]float64{1}) })
}

func TestSVRKernels(t *testing.T) {
	X, y := syntheticLinear(60, 2, 6, 0)
	for _, k := range []Kernel{LinearKernel{}, RBFKernel{Gamma: 1}, PolyKernel{Gamma: 1, Coef0: 1, Degree: 2}} {
		m := NewSVR()
		m.Kernel = k
		m.Seed = 4
		if err := m.Fit(X, y); err != nil {
			t.Fatalf("%s: %v", k.Name(), err)
		}
		pred := PredictBatch(m, X)
		if r2 := R2(y, pred); r2 < 0.95 {
			t.Fatalf("%s kernel train R2 = %v", k.Name(), r2)
		}
	}
}

// A refit must re-derive the default RBF gamma from the new data, exactly
// as a fresh fit does, while a kernel the caller set survives refits.
func TestSVRRefitMatchesFreshFit(t *testing.T) {
	X, y := syntheticFriedman(60, 9)
	scaled := make([][]float64, len(X))
	for i, row := range X {
		scaled[i] = make([]float64, len(row))
		for j, v := range row {
			scaled[i][j] = 10 * v
		}
	}
	refit := NewSVR()
	if err := refit.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if err := refit.Fit(scaled, y); err != nil {
		t.Fatal(err)
	}
	fresh := NewSVR()
	if err := fresh.Fit(scaled, y); err != nil {
		t.Fatal(err)
	}
	if refit.Kernel != fresh.Kernel {
		t.Fatalf("refit kernel %+v, fresh fit %+v", refit.Kernel, fresh.Kernel)
	}
	if !reflect.DeepEqual(refit.Beta, fresh.Beta) || refit.B != fresh.B {
		t.Fatal("refit dual solution differs from a fresh fit")
	}
	if !reflect.DeepEqual(PredictBatch(refit, scaled), PredictBatch(fresh, scaled)) {
		t.Fatal("refit predictions differ from a fresh fit")
	}

	own := NewSVR()
	own.Kernel = RBFKernel{Gamma: 0.5}
	for _, data := range [][][]float64{X, scaled} {
		if err := own.Fit(data, y); err != nil {
			t.Fatal(err)
		}
		if own.Kernel != (RBFKernel{Gamma: 0.5}) {
			t.Fatalf("caller's kernel replaced by %+v", own.Kernel)
		}
	}
	// Setting a kernel after a default-kernel fit also sticks.
	refit.Kernel = LinearKernel{}
	if err := refit.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if refit.Kernel != (LinearKernel{}) {
		t.Fatalf("caller's kernel replaced by %+v", refit.Kernel)
	}
}

// The dual solver allocates only per Fit, never per sweep or pair step:
// running eight times as many sweeps allocates exactly as often.
func TestSVRFitAllocsIndependentOfSweeps(t *testing.T) {
	X, y, _ := paperShapedSplit(t, "smooth")
	allocs := func(maxIter int) float64 {
		return testing.AllocsPerRun(2, func() {
			m := NewSVR()
			m.MaxIter = maxIter
			if err := m.Fit(X, y); err != nil {
				panic(err)
			}
			if m.Iters != maxIter {
				panic(fmt.Sprintf("solver stopped after %d of %d sweeps", m.Iters, maxIter))
			}
		})
	}
	short, long := allocs(50), allocs(400)
	if short != long {
		t.Fatalf("SVR.Fit allocated %.0f times with 50 sweeps and %.0f with 400; want equal", short, long)
	}
}

func TestRegressionTreePerfectOnTrainWhenUnbounded(t *testing.T) {
	X, y := syntheticFriedman(100, 2)
	var tr RegressionTree
	if err := tr.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	pred := PredictBatch(&tr, X)
	if r2 := R2(y, pred); r2 < 1-1e-9 {
		t.Fatalf("unbounded tree train R2 = %v", r2)
	}
}

func TestRegressionTreeDepthLimit(t *testing.T) {
	X, y := syntheticFriedman(200, 3)
	tr := RegressionTree{MaxDepth: 2}
	if err := tr.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if d := tr.Depth(); d > 2 {
		t.Fatalf("Depth = %d, want <= 2", d)
	}
	if lc := tr.LeafCount(); lc > 4 {
		t.Fatalf("LeafCount = %d, want <= 4", lc)
	}
}

func TestRegressionTreeMinSamplesLeaf(t *testing.T) {
	X, y := syntheticFriedman(50, 4)
	tr := RegressionTree{MinSamplesLeaf: 10}
	if err := tr.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if tr.LeafCount() > 5 {
		t.Fatalf("LeafCount = %d with MinSamplesLeaf=10 over 50 samples", tr.LeafCount())
	}
}

func TestRegressionTreeConstantTarget(t *testing.T) {
	X := [][]float64{{1}, {2}, {3}, {4}}
	y := []float64{5, 5, 5, 5}
	var tr RegressionTree
	if err := tr.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if tr.LeafCount() != 1 {
		t.Fatalf("constant target should yield a single leaf, got %d", tr.LeafCount())
	}
	if got := tr.Predict([]float64{99}); got != 5 {
		t.Fatalf("Predict = %v, want 5", got)
	}
}

func TestRegressionTreeSingleSample(t *testing.T) {
	var tr RegressionTree
	if err := tr.Fit([][]float64{{1, 2}}, []float64{7}); err != nil {
		t.Fatal(err)
	}
	if got := tr.Predict([]float64{0, 0}); got != 7 {
		t.Fatalf("Predict = %v, want 7", got)
	}
}

// Growing a tree allocates its nodes plus a constant of per-Fit scratch;
// the split search allocates nothing per feature or per node.
func TestRegressionTreeFitAllocBound(t *testing.T) {
	X, y, _ := paperShapedSplit(t, "rough")
	var nodes int
	allocs := testing.AllocsPerRun(3, func() {
		var tr RegressionTree
		if err := tr.Fit(X, y); err != nil {
			panic(err)
		}
		nodes = 2*tr.LeafCount() - 1
	})
	if nodes < 100 {
		t.Fatalf("tree has only %d nodes; the bound needs a deep tree", nodes)
	}
	if limit := float64(nodes + 16); allocs > limit {
		t.Fatalf("RegressionTree.Fit allocated %.0f times for %d nodes; want <= %.0f", allocs, nodes, limit)
	}
}

func TestRandomForestBeatsSingleShallowTree(t *testing.T) {
	X, y := syntheticFriedman(300, 6)
	trX, trY, teX, teY, _ := TrainTestSplit(X, y, 0.25, 1)
	f := &RandomForest{NumTrees: 60, Seed: 1}
	if err := f.Fit(trX, trY); err != nil {
		t.Fatal(err)
	}
	fr2 := R2(teY, PredictBatch(f, teX))
	if fr2 < 0.8 {
		t.Fatalf("forest test R2 = %v", fr2)
	}
}

func TestRandomForestDeterministicWithSeed(t *testing.T) {
	X, y := syntheticFriedman(80, 7)
	a := &RandomForest{NumTrees: 10, Seed: 42}
	b := &RandomForest{NumTrees: 10, Seed: 42}
	if err := a.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if err := b.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	for i := range X {
		if a.Predict(X[i]) != b.Predict(X[i]) {
			t.Fatal("same-seed forests must agree")
		}
	}
}

func TestRandomForestVarianceNonNegativeAndInformative(t *testing.T) {
	X, y := syntheticFriedman(100, 8)
	f := &RandomForest{NumTrees: 30, Seed: 3}
	if err := f.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	_, v := f.PredictWithVariance(X[0])
	if v < 0 {
		t.Fatalf("variance = %v", v)
	}
	// Far outside the training domain the trees should disagree more than at
	// a training point, on average.
	var inVar, outVar float64
	for i := 0; i < 20; i++ {
		_, vi := f.PredictWithVariance(X[i])
		inVar += vi
		_, vo := f.PredictWithVariance([]float64{10 + float64(i), -10, 10, -10})
		outVar += vo
	}
	if outVar < inVar {
		t.Logf("warning: extrapolation variance %v not larger than interpolation %v", outVar, inVar)
	}
}

func TestGradientBoostingImprovesWithStages(t *testing.T) {
	X, y := syntheticFriedman(200, 9)
	few := &GradientBoosting{NumStages: 3, LearningRate: 0.1, MaxDepth: 3}
	many := &GradientBoosting{NumStages: 150, LearningRate: 0.1, MaxDepth: 3}
	if err := few.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if err := many.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	mseFew := MSE(y, PredictBatch(few, X))
	mseMany := MSE(y, PredictBatch(many, X))
	if mseMany >= mseFew {
		t.Fatalf("more stages should reduce train MSE: %v vs %v", mseMany, mseFew)
	}
}

func TestGradientBoostingSubsample(t *testing.T) {
	X, y := syntheticFriedman(120, 10)
	g := &GradientBoosting{NumStages: 50, LearningRate: 0.2, MaxDepth: 3, Subsample: 0.6, Seed: 2}
	if err := g.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if r2 := R2(y, PredictBatch(g, X)); r2 < 0.9 {
		t.Fatalf("stochastic GB train R2 = %v", r2)
	}
	if g.NumFittedStages() != 50 {
		t.Fatalf("stages = %d", g.NumFittedStages())
	}
}

func TestGradientBoostingConstantTarget(t *testing.T) {
	X := [][]float64{{1}, {2}, {3}}
	y := []float64{4, 4, 4}
	g := NewGradientBoosting()
	if err := g.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if got := g.Predict([]float64{2}); math.Abs(got-4) > 1e-9 {
		t.Fatalf("Predict = %v, want 4", got)
	}
}

func TestKNNExactMatch(t *testing.T) {
	X := [][]float64{{0}, {1}, {2}}
	y := []float64{10, 20, 30}
	k := &KNN{K: 1}
	if err := k.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if got := k.Predict([]float64{1}); got != 20 {
		t.Fatalf("Predict = %v", got)
	}
	kw := &KNN{K: 3, Weighted: true}
	if err := kw.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if got := kw.Predict([]float64{2}); got != 30 {
		t.Fatalf("weighted exact match = %v, want 30", got)
	}
}

func TestKNNAveraging(t *testing.T) {
	X := [][]float64{{0}, {1}, {10}}
	y := []float64{0, 2, 100}
	k := &KNN{K: 2}
	if err := k.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if got := k.Predict([]float64{0.5}); got != 1 {
		t.Fatalf("Predict = %v, want 1", got)
	}
}

func TestKNNLargerKThanData(t *testing.T) {
	X := [][]float64{{0}, {1}}
	y := []float64{2, 4}
	k := &KNN{K: 10}
	if err := k.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if got := k.Predict([]float64{0}); got != 3 {
		t.Fatalf("Predict = %v, want mean 3", got)
	}
}

func TestModelNames(t *testing.T) {
	cases := []struct {
		m    Named
		want string
	}{
		{&LinearRegression{}, "Linear"},
		{&Ridge{}, "Ridge"},
		{NewSVR(), "SVM"},
		{&RegressionTree{}, "Tree"},
		{NewRandomForest(), "RF"},
		{NewGradientBoosting(), "GB"},
		{&KNN{}, "KNN"},
	}
	for _, c := range cases {
		if got := c.m.Name(); got != c.want {
			t.Fatalf("Name = %q, want %q", got, c.want)
		}
	}
}

func TestPredictBatchLength(t *testing.T) {
	X, y := syntheticLinear(20, 2, 1, 0)
	var m LinearRegression
	if err := m.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if got := PredictBatch(&m, X); len(got) != 20 {
		t.Fatalf("batch length = %d", len(got))
	}
}

// Property: an unbounded CART tree always reproduces distinct training points
// exactly (it can memorize when all feature vectors are unique).
func TestPropTreeMemorizes(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		X := make([][]float64, n)
		y := make([]float64, n)
		used := map[float64]bool{}
		for i := range X {
			v := rng.Float64()
			for used[v] {
				v = rng.Float64()
			}
			used[v] = true
			X[i] = []float64{v}
			y[i] = rng.NormFloat64()
		}
		var tr RegressionTree
		if err := tr.Fit(X, y); err != nil {
			return false
		}
		for i := range X {
			if math.Abs(tr.Predict(X[i])-y[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: forest predictions stay within [min(y), max(y)] — trees predict
// leaf means and means of means cannot escape the hull.
func TestPropForestWithinHull(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(30)
		X := make([][]float64, n)
		y := make([]float64, n)
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := range X {
			X[i] = []float64{rng.Float64(), rng.Float64()}
			y[i] = rng.NormFloat64()
			if y[i] < lo {
				lo = y[i]
			}
			if y[i] > hi {
				hi = y[i]
			}
		}
		fr := &RandomForest{NumTrees: 10, Seed: seed}
		if err := fr.Fit(X, y); err != nil {
			return false
		}
		for i := 0; i < 5; i++ {
			p := fr.Predict([]float64{rng.Float64() * 3, rng.Float64() * 3})
			if p < lo-1e-9 || p > hi+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
