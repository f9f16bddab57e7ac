package ml

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// The golden fit suite pins the surrogate models' exact output on a
// paper-shaped dataset: the SVR dual solution (β, bias and sweep count) and
// every model's held-out predictions, as raw float64 bits. The fixture was
// captured before the SVR solver and CART split search were optimised; any
// later change to the training loops must reproduce it bit-for-bit.
//
// It is pinned on amd64 only. The Go spec lets a compiler fuse x*y+z into a
// single fused multiply-add, and the arm64, ppc64 and s390x back ends do so,
// which rounds once instead of twice; amd64 never fuses without an explicit
// math.FMA. The fixture's bits are therefore an amd64 property.
//
// Regenerate (only when a model itself intentionally changes) with:
//
//	ML_UPDATE_GOLDEN=1 go test ./internal/ml -run TestGoldenFit

var goldenFitPath = filepath.Join("testdata", "golden_fit.json")

type goldenTarget struct {
	Name     string              `json:"name"`
	SVRBeta  []string            `json:"svr_beta"`
	SVRB     string              `json:"svr_b"`
	SVRIters int                 `json:"svr_iters"`
	Pred     map[string][]string `json:"pred"`
}

// paperShapedData mimics the DSE corpus: the 416-point design space's
// discrete feature grid (CPU × controller frequency × channels × 13 memory
// configurations, with tRAS/tRCD/DRAM-fraction and a one-hot type encoding:
// ten features, many tied values per feature), with 46 points dropped as
// failed, leaving 370 rows (296 train / 74 test at the paper's 80/20 split).
// Two targets stand in for simulator metrics: a noisy one on which the SVR
// converges within a few sweeps with every row a support vector, and a
// smooth one on which it runs all MaxIter sweeps.
func paperShapedData() (X [][]float64, targets map[string][]float64) {
	rng := rand.New(rand.NewSource(2021))
	targets = map[string][]float64{}
	for _, cpu := range []float64{2000, 3000, 5000, 6500} {
		for _, ctrl := range []float64{400, 666, 1250, 1600} {
			for _, ch := range []float64{2, 4} {
				for cfg := 0; cfg < 13; cfg++ {
					var tras, trcd, frac, isD, isN, isH, flat float64
					switch {
					case cfg == 0:
						tras, trcd, isD = 24, 9, 1
					case cfg <= 6:
						trcd, isN = math.Round(ctrl/40)*float64(cfg), 1
					default:
						k := cfg - 6
						trcd, isH = math.Round(ctrl/40)*float64(k), 1
						frac = []float64{0.0625, 0.125, 0.25}[k%3]
						flat = float64(k % 2)
					}
					X = append(X, []float64{cpu, ctrl, ch, tras, trcd, frac, isD, isN, isH, flat})
					lat := trcd/ctrl*(1+isN) + 0.02*cpu/ctrl - 0.1*frac*isH
					targets["smooth"] = append(targets["smooth"], ch*ctrl/(1+lat)+0.01*rng.NormFloat64())
					targets["rough"] = append(targets["rough"],
						math.Sin(cpu/900)*ch+math.Mod(trcd, 7)*isN+3*flat+rng.NormFloat64())
				}
			}
		}
	}
	// Drop a fixed 46 points, as the paper's failure rate does.
	keep := rng.Perm(len(X))[:370]
	var kx [][]float64
	kt := map[string][]float64{}
	for _, i := range keep {
		kx = append(kx, X[i])
		for name, col := range targets {
			kt[name] = append(kt[name], col[i])
		}
	}
	return kx, kt
}

// paperShapedSplit scales paperShapedData as the DSE workflow does (min-max
// features and target, 80/20 split with seed 1) and returns the target's
// 296 training rows and 74 held-out rows.
func paperShapedSplit(tb testing.TB, target string) (trX [][]float64, trY []float64, teX [][]float64) {
	tb.Helper()
	rawX, targets := paperShapedData()
	var xs MinMaxScaler
	X, err := xs.FitTransform(rawX)
	if err != nil {
		tb.Fatal(err)
	}
	var ys VecMinMaxScaler
	if err := ys.Fit(targets[target]); err != nil {
		tb.Fatal(err)
	}
	trX, trY, teX, _, err = TrainTestSplit(X, ys.Transform(targets[target]), 0.2, 1)
	if err != nil {
		tb.Fatal(err)
	}
	if len(trX) != 296 {
		tb.Fatalf("train rows = %d, want 296", len(trX))
	}
	return trX, trY, teX
}

// goldenFits fits the paper's four models (dse.DefaultModels' settings)
// plus a feature-subsampled forest on each target and records their bits.
func goldenFits(t *testing.T) []goldenTarget {
	t.Helper()
	var out []goldenTarget
	for _, name := range []string{"rough", "smooth"} {
		trX, trY, teX := paperShapedSplit(t, name)
		svr := NewSVR()
		svr.Seed = 42
		gb := NewGradientBoosting()
		gb.Seed = 42
		models := []struct {
			name string
			m    Regressor
		}{
			{"Linear", &LinearRegression{}},
			{"SVM", svr},
			{"RF", &RandomForest{NumTrees: 100, Seed: 42}},
			{"GB", gb},
			{"RF-mtry3", &RandomForest{NumTrees: 20, MaxFeatures: 3, Seed: 42}},
		}
		g := goldenTarget{Name: name, Pred: map[string][]string{}}
		for _, m := range models {
			if err := m.m.Fit(trX, trY); err != nil {
				t.Fatalf("%s on %s: %v", m.name, name, err)
			}
			g.Pred[m.name] = floatBits(PredictBatch(m.m, teX))
		}
		g.SVRBeta = floatBits(svr.Beta)
		g.SVRB = floatBits([]float64{svr.B})[0]
		g.SVRIters = svr.Iters
		out = append(out, g)
	}
	return out
}

func floatBits(v []float64) []string {
	out := make([]string, len(v))
	for i, x := range v {
		out[i] = fmt.Sprintf("%016x", math.Float64bits(x))
	}
	return out
}

// TestGoldenFit requires every fitted model to reproduce the committed
// fixture bit-for-bit.
func TestGoldenFit(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden fit bits are pinned on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	got := goldenFits(t)
	if os.Getenv("ML_UPDATE_GOLDEN") != "" {
		data, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenFitPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFitPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(goldenFitPath)
	if err != nil {
		t.Fatalf("golden fixture missing (regenerate with ML_UPDATE_GOLDEN=1): %v", err)
	}
	var want []goldenTarget
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("golden fixture corrupt: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d targets, fixture has %d", len(got), len(want))
	}
	for ti, w := range want {
		g := got[ti]
		if g.Name != w.Name {
			t.Fatalf("target %d is %q, fixture has %q", ti, g.Name, w.Name)
		}
		if g.SVRIters != w.SVRIters {
			t.Errorf("%s: SVR iters = %d, want %d", w.Name, g.SVRIters, w.SVRIters)
		}
		if g.SVRB != w.SVRB {
			t.Errorf("%s: SVR bias bits = %s, want %s", w.Name, g.SVRB, w.SVRB)
		}
		diffBits(t, w.Name+" SVR beta", g.SVRBeta, w.SVRBeta)
		if len(g.Pred) != len(w.Pred) {
			t.Errorf("%s: %d models, fixture has %d", w.Name, len(g.Pred), len(w.Pred))
		}
		for model, wp := range w.Pred {
			diffBits(t, w.Name+" "+model+" predictions", g.Pred[model], wp)
		}
	}
}

func diffBits(t *testing.T, what string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d values, want %d", what, len(got), len(want))
		return
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s: first difference at %d: bits %s, want %s", what, i, got[i], want[i])
			return
		}
	}
}
