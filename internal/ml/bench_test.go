package ml

import "testing"

func benchData(b *testing.B, n int) ([][]float64, []float64) {
	b.Helper()
	X, y := syntheticFriedman(n, 77)
	return X, y
}

func BenchmarkLinearFit(b *testing.B) {
	X, y := benchData(b, 400)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var m LinearRegression
		if err := m.Fit(X, y); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSVRFit(b *testing.B) {
	X, y := benchData(b, 300)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := NewSVR()
		m.Seed = int64(i)
		if err := m.Fit(X, y); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRegressionTreeFit grows one unbounded CART tree, the forest's
// weak learner, on the paper-shaped 296-row training split.
func BenchmarkRegressionTreeFit(b *testing.B) {
	X, y, _ := paperShapedSplit(b, "rough")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var tr RegressionTree
		if err := tr.Fit(X, y); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRandomForestFit(b *testing.B) {
	X, y := benchData(b, 400)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := &RandomForest{NumTrees: 50, Seed: int64(i)}
		if err := m.Fit(X, y); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGradientBoostingFit(b *testing.B) {
	X, y := benchData(b, 400)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := &GradientBoosting{NumStages: 50, LearningRate: 0.1, MaxDepth: 3, Seed: int64(i)}
		if err := m.Fit(X, y); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMLPFit(b *testing.B) {
	X, y := benchData(b, 200)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := NewMLP()
		m.Epochs = 100
		m.Seed = int64(i)
		if err := m.Fit(X, y); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPredict(b *testing.B) {
	X, y := benchData(b, 300)
	models := map[string]Regressor{}
	lin := &LinearRegression{}
	svr := NewSVR()
	rf := &RandomForest{NumTrees: 100, Seed: 1}
	gb := NewGradientBoosting()
	for name, m := range map[string]Regressor{"Linear": lin, "SVM": svr, "RF": rf, "GB": gb} {
		if err := m.Fit(X, y); err != nil {
			b.Fatal(err)
		}
		models[name] = m
	}
	for _, name := range []string{"Linear", "SVM", "RF", "GB"} {
		m := models[name]
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m.Predict(X[i%len(X)])
			}
		})
	}
}

func BenchmarkMinMaxScaler(b *testing.B) {
	X, _ := benchData(b, 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var s MinMaxScaler
		if _, err := s.FitTransform(X); err != nil {
			b.Fatal(err)
		}
	}
}
