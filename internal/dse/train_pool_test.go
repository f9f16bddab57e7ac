package dse

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"graphdse/internal/guard"
	"graphdse/internal/memsim"
	"graphdse/internal/ml"
)

// paperShapedDataset is a synthetic corpus of the paper's shape: one row per
// point of the 416-point space, its real feature columns, and six smooth
// targets of different form with a little noise.
func paperShapedDataset() *Dataset {
	ds := &Dataset{Y: map[string][]float64{}}
	rng := rand.New(rand.NewSource(3))
	for _, p := range EnumerateSpace(SpaceParams{}) {
		x := p.FeatureVector()
		ds.X = append(ds.X, x)
		ds.Points = append(ds.Points, p)
		for mi, name := range memsim.MetricNames {
			v := 0.1 * rng.Float64()
			for j, f := range x {
				v += math.Sin(float64(mi+j+1) * math.Log1p(f))
			}
			ds.Y[name] = append(ds.Y[name], v)
		}
	}
	return ds
}

// serialTrainAndEvaluate is the reference: the one-fit-at-a-time loop that
// training ran before fits shared the cores.
func serialTrainAndEvaluate(ds *Dataset, models []ModelSpec, testFrac float64, splitSeed int64) ([]ModelPerf, map[string]*Figure3Series, error) {
	var xs ml.MinMaxScaler
	X, err := xs.FitTransform(ds.X)
	if err != nil {
		return nil, nil, err
	}
	var table []ModelPerf
	fig3 := map[string]*Figure3Series{}
	for _, metric := range memsim.MetricNames {
		yRaw, err := ds.Metric(metric)
		if err != nil {
			return nil, nil, err
		}
		var ys ml.VecMinMaxScaler
		if err := ys.Fit(yRaw); err != nil {
			return nil, nil, err
		}
		y := ys.Transform(yRaw)
		trX, trY, teX, teY, err := ml.TrainTestSplit(X, y, testFrac, splitSeed)
		if err != nil {
			return nil, nil, err
		}
		series := &Figure3Series{Metric: metric, Truth: teY, Pred: map[string][]float64{}}
		for _, spec := range models {
			m := spec.New()
			if err := m.Fit(trX, trY); err != nil {
				return nil, nil, fmt.Errorf("%s on %s: %w", spec.Name, metric, err)
			}
			pred := ml.PredictBatch(m, teX)
			series.Pred[spec.Name] = pred
			table = append(table, ModelPerf{
				Metric: metric,
				Model:  spec.Name,
				MSE:    ml.MSE(teY, pred),
				R2:     ml.R2(teY, pred),
			})
		}
		fig3[metric] = series
	}
	return table, fig3, nil
}

// sameBits fails unless two Table I / Figure 3 results are identical to the
// bit.
func sameBits(t *testing.T, label string, wantT, gotT []ModelPerf, wantF, gotF map[string]*Figure3Series) {
	t.Helper()
	if len(gotT) != len(wantT) {
		t.Fatalf("%s: %d Table I rows, want %d", label, len(gotT), len(wantT))
	}
	for i, w := range wantT {
		g := gotT[i]
		if g.Metric != w.Metric || g.Model != w.Model ||
			math.Float64bits(g.MSE) != math.Float64bits(w.MSE) ||
			math.Float64bits(g.R2) != math.Float64bits(w.R2) {
			t.Fatalf("%s: Table I row %d = %+v, want %+v", label, i, g, w)
		}
	}
	if len(gotF) != len(wantF) {
		t.Fatalf("%s: %d Figure 3 panels, want %d", label, len(gotF), len(wantF))
	}
	for metric, w := range wantF {
		g := gotF[metric]
		if g == nil || !sameFloats(g.Truth, w.Truth) || len(g.Pred) != len(w.Pred) {
			t.Fatalf("%s: Figure 3 %s panel differs", label, metric)
		}
		for model, wp := range w.Pred {
			if !sameFloats(g.Pred[model], wp) {
				t.Fatalf("%s: Figure 3 %s/%s predictions differ", label, metric, model)
			}
		}
	}
}

func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestTrainPoolBitIdentical: the fit pool reproduces the serial loop's
// Table I and Figure 3 bit for bit, on one worker and on four.
func TestTrainPoolBitIdentical(t *testing.T) {
	ds := paperShapedDataset()
	models := DefaultModels(42)
	wantT, wantF, err := serialTrainAndEvaluate(ds, models, 0.2, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		gotT, gotF, err := trainAndEvaluate(context.Background(), ds, models, 0.2, 7, nil, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		sameBits(t, fmt.Sprintf("workers=%d", workers), wantT, gotT, wantF, gotF)
	}
}

var errInjectedFit = errors.New("injected fit failure")

// scriptedFit is a regressor that fails (or panics) on chosen metrics,
// which it recognises by its training targets. Fits that succeed take a
// random few hundred microseconds; failing ones take longer the lower their
// table index, so higher-indexed failures tend to finish first.
type scriptedFit struct {
	ml.LinearRegression
	model  int
	script *fitScript
}

type fitScript struct {
	metricOf map[uint64]int  // training-target fingerprint → metric index
	fail     map[[2]int]bool // (metric, model) → fail (false: panic)
}

func (f *scriptedFit) Fit(X [][]float64, y []float64) error {
	mi, ok := f.script.metricOf[targetKey(y)]
	if !ok {
		return errors.New("unrecognised training targets")
	}
	k := mi*4 + f.model
	fail, scripted := f.script.fail[[2]int{mi, f.model}]
	if !scripted {
		time.Sleep(time.Duration(rand.Intn(400)) * time.Microsecond)
		return f.LinearRegression.Fit(X, y)
	}
	time.Sleep(time.Duration(24-k) * 300 * time.Microsecond)
	if !fail {
		panic(fmt.Sprintf("scripted panic at fit %d", k))
	}
	return errInjectedFit
}

func targetKey(y []float64) uint64 {
	var s float64
	for _, v := range y {
		s += v
	}
	return math.Float64bits(s)
}

// scriptedModels builds four factories over one script; the fingerprints
// are the scaled training targets that preparation hands each metric's
// fits.
func scriptedModels(t *testing.T, ds *Dataset, fail map[[2]int]bool) []ModelSpec {
	t.Helper()
	var xs ml.MinMaxScaler
	X, err := xs.FitTransform(ds.X)
	if err != nil {
		t.Fatal(err)
	}
	script := &fitScript{metricOf: map[uint64]int{}, fail: fail}
	for mi, metric := range memsim.MetricNames {
		var ys ml.VecMinMaxScaler
		if err := ys.Fit(ds.Y[metric]); err != nil {
			t.Fatal(err)
		}
		_, trY, _, _, err := ml.TrainTestSplit(X, ys.Transform(ds.Y[metric]), 0.2, 7)
		if err != nil {
			t.Fatal(err)
		}
		script.metricOf[targetKey(trY)] = mi
	}
	if len(script.metricOf) != len(memsim.MetricNames) {
		t.Fatal("metrics share a training-target fingerprint")
	}
	models := make([]ModelSpec, 4)
	for j := range models {
		models[j] = ModelSpec{Name: fmt.Sprintf("m%d", j), New: func() ml.Regressor {
			return &scriptedFit{model: j, script: script}
		}}
	}
	return models
}

// TestTrainPoolErrorOrder: with several fits failing, the pool returns the
// error of the lowest failing (metric, model), as the serial loop would,
// whatever order the fits finish in. A panicking fit is an error, not a
// crash.
func TestTrainPoolErrorOrder(t *testing.T) {
	ds := paperShapedDataset()
	cases := []struct {
		fail      map[[2]int]bool
		wantModel string
		wantMet   int
		wantPanic bool
	}{
		{fail: map[[2]int]bool{{1, 3}: true, {2, 0}: true, {4, 1}: false, {5, 2}: true}, wantModel: "m3", wantMet: 1},
		{fail: map[[2]int]bool{{0, 2}: false, {0, 3}: true, {3, 1}: true}, wantModel: "m2", wantMet: 0, wantPanic: true},
	}
	for ci, c := range cases {
		models := scriptedModels(t, ds, c.fail)
		want := fmt.Sprintf("%s on %s: ", c.wantModel, memsim.MetricNames[c.wantMet])
		for run := 0; run < 20; run++ {
			_, _, err := trainAndEvaluate(context.Background(), ds, models, 0.2, 7, nil, 4)
			if err == nil || !strings.HasPrefix(err.Error(), want) {
				t.Fatalf("case %d run %d: err = %v, want prefix %q", ci, run, err, want)
			}
			var pe *PanicError
			if got := errors.As(err, &pe); got != c.wantPanic {
				t.Fatalf("case %d run %d: panic error = %v, want %v (%v)", ci, run, got, c.wantPanic, err)
			}
			if !c.wantPanic && !errors.Is(err, errInjectedFit) {
				t.Fatalf("case %d run %d: err = %v does not wrap the fit's error", ci, run, err)
			}
		}
	}
}

// TestTrainPoolBeatsSerialized: fits finish close together on four
// workers, yet beat calls never overlap and each fit beats once.
func TestTrainPoolBeatsSerialized(t *testing.T) {
	ds := paperShapedDataset()
	models := scriptedModels(t, ds, nil)
	var inside atomic.Int32
	beats := 0 // unsynchronized on purpose: overlapping calls are a race
	beat := func() {
		if inside.Add(1) != 1 {
			t.Error("beat calls overlap")
		}
		time.Sleep(200 * time.Microsecond)
		beats++
		inside.Add(-1)
	}
	if _, _, err := trainAndEvaluate(context.Background(), ds, models, 0.2, 7, beat, 4); err != nil {
		t.Fatal(err)
	}
	if want := len(memsim.MetricNames) * len(models); beats != want {
		t.Fatalf("%d beats, want %d", beats, want)
	}
}

// TestWorkflowTrainDownshift: memory pressure trims the training pool like
// the sweep's, the decision is in the run report, and Table I is unchanged.
func TestWorkflowTrainDownshift(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	opts := guardedOpts()
	opts.Models = DefaultModels(42)
	base, err := RunWorkflowContext(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	const reason = "test: signalled pressure"
	testHookGovernor = func(g *guard.Governor) { g.SignalPressure(reason) }
	defer func() { testHookGovernor = nil }()
	res, err := RunWorkflowContext(context.Background(), opts)
	if err != nil {
		t.Fatalf("pressured workflow failed: %v", err)
	}
	var saw bool
	for _, d := range res.Supervision.Downshifts {
		if d.Stage == "train" && d.Resource == "workers" {
			if d.From != 4 || d.To != 2 || d.Reason != reason {
				t.Fatalf("train downshift = %+v, want 4 -> 2 for %q", d, reason)
			}
			saw = true
		}
	}
	if !saw {
		t.Fatalf("no train downshift recorded: %+v", res.Supervision.Downshifts)
	}
	sameBits(t, "pressured", base.Table1, res.Table1, base.Figure3, res.Figure3)
}
