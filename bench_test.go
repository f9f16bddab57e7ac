// Package graphdse's root benchmark harness regenerates every table and
// figure of the paper's evaluation (see DESIGN.md's experiment index) and
// provides ablation benches for the design choices called out there:
//
//	Figure 2   — BenchmarkFigure2Sweep
//	Table I    — BenchmarkTable1Training
//	Figure 3   — BenchmarkFigure3Prediction
//	§III-D     — BenchmarkTraceConvertSequential / BenchmarkTraceConvertParallel
//	§IV-B      — BenchmarkRecommendation
//	DSE economics — BenchmarkSurrogatePredict vs BenchmarkMemsimReplay*
//
// Run with: go test -bench=. -benchmem
package graphdse

import (
	"bytes"
	"context"
	"io"
	"sync"
	"testing"

	"graphdse/internal/dse"
	"graphdse/internal/graph"
	"graphdse/internal/memsim"
	"graphdse/internal/ml"
	"graphdse/internal/sysim"
	"graphdse/internal/trace"
)

// Shared fixtures, built once.
var (
	fixOnce   sync.Once
	fixTrace  []trace.Event
	fixFoot   int
	fixGraph  *graph.CSR
	fixDS     *dse.Dataset
	fixXs     [][]float64
	fixYPower []float64
)

func fixtures(b *testing.B) {
	b.Helper()
	fixOnce.Do(func() {
		machine, _, err := sysim.PaperWorkloadTraceContext(context.Background(), sysim.DefaultConfig(), 1024, 16, 42, 1, nil)
		if err != nil {
			b.Fatal(err)
		}
		fixTrace = machine.Trace()
		fixFoot = int(machine.Layout().Footprint()) / 64
		fixGraph, err = graph.GenerateGTGraph(1024, 16, 42)
		if err != nil {
			b.Fatal(err)
		}
		// A reduced sweep builds the ML dataset quickly.
		points := dse.EnumerateSpace(dse.SpaceParams{
			CPUFreqsMHz:  []float64{2000, 6500},
			CtrlFreqsMHz: []float64{400, 1600},
			Channels:     []int{2, 4},
		})
		records, err := dse.SweepPreparedContext(context.Background(), prepareFix(b), points, dse.SweepOptions{FootprintLines: fixFoot})
		if err != nil {
			b.Fatal(err)
		}
		fixDS, err = dse.BuildDataset(records)
		if err != nil {
			b.Fatal(err)
		}
		var xs ml.MinMaxScaler
		fixXs, err = xs.FitTransform(fixDS.X)
		if err != nil {
			b.Fatal(err)
		}
		fixYPower, err = fixDS.Metric("Power")
		if err != nil {
			b.Fatal(err)
		}
	})
}

// prepareFix prepares the fixture trace afresh, so what replays it shares no
// partition or suffix with any other run and pays the one-shot cost of
// validation, decoding and partitioning.
func prepareFix(b *testing.B) *memsim.PreparedTrace {
	pt, err := memsim.Prepare(fixTrace)
	if err != nil {
		b.Fatal(err)
	}
	return pt
}

// replayFix is a one-shot replay of the fixture trace against cfg.
func replayFix(b *testing.B, cfg memsim.Config) {
	if _, err := memsim.RunPreparedTrace(cfg, prepareFix(b)); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkFigure2Sweep regenerates Figure 2: the full 416-configuration
// design-space sweep over the paper workload trace plus the per-cell
// aggregation.
func BenchmarkFigure2Sweep(b *testing.B) {
	fixtures(b)
	points := dse.EnumerateSpace(dse.SpaceParams{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		records, err := dse.SweepPreparedContext(context.Background(), prepareFix(b), points, dse.SweepOptions{
			FootprintLines: fixFoot,
			Faults:         dse.PaperFaults(dse.PaperFailureRate, 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		rows := dse.BuildFigure2(records)
		if len(rows) != 32 {
			b.Fatalf("figure 2 rows = %d", len(rows))
		}
	}
}

// BenchmarkTable1Training regenerates Table I: training and evaluating all
// four surrogates on all six metrics (min-max scaled, 80/20 split).
func BenchmarkTable1Training(b *testing.B) {
	fixtures(b)
	models := dse.DefaultModels(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		table, _, err := dse.TrainAndEvaluateContext(context.Background(), fixDS, models, 0.2, 7, nil)
		if err != nil {
			b.Fatal(err)
		}
		if len(table) != 24 {
			b.Fatalf("table rows = %d", len(table))
		}
	}
}

// BenchmarkFigure3Prediction regenerates the Figure 3 series: per-model
// test-set predictions for one metric.
func BenchmarkFigure3Prediction(b *testing.B) {
	fixtures(b)
	models := dse.DefaultModels(1)
	_, fig3, err := dse.TrainAndEvaluateContext(context.Background(), fixDS, models, 0.2, 7, nil)
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		dse.RenderFigure3(&buf, fig3["Power"])
	}
}

// BenchmarkRecommendation regenerates the §IV-B recommendation list from a
// sweep's aggregates.
func BenchmarkRecommendation(b *testing.B) {
	fixtures(b)
	points := dse.EnumerateSpace(dse.SpaceParams{})
	records, err := dse.SweepPreparedContext(context.Background(), prepareFix(b), points, dse.SweepOptions{FootprintLines: fixFoot})
	if err != nil {
		b.Fatal(err)
	}
	rows := dse.BuildFigure2(records)
	models := dse.DefaultModels(1)
	table, _, err := dse.TrainAndEvaluateContext(context.Background(), fixDS, models, 0.2, 7, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := dse.Recommend(rows, table)
		if rec.BestPowerType != memsim.NVM {
			b.Fatalf("power recommendation %v, want NVM (paper §IV-B)", rec.BestPowerType)
		}
	}
}

// gem5Corpus renders the workload trace in gem5 text format with interleaved
// compute lines, approximating the paper's 91.5M-line trace structure at
// reduced scale.
func gem5Corpus(b *testing.B) []byte {
	fixtures(b)
	var buf bytes.Buffer
	if err := trace.WriteGem5(&buf, fixTrace, 500); err != nil {
		b.Fatal(err)
	}
	var mixed bytes.Buffer
	for _, line := range bytes.Split(buf.Bytes(), []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		mixed.Write(line)
		mixed.WriteByte('\n')
		mixed.WriteString("0: system.cpu.fetch: inst 0x400\n")
	}
	return mixed.Bytes()
}

// BenchmarkTraceConvertSequential is the §III-D baseline.
func BenchmarkTraceConvertSequential(b *testing.B) {
	input := gem5Corpus(b)
	b.SetBytes(int64(len(input)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := trace.ConvertSequential(bytes.NewReader(input), io.Discard, 500); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTraceConvertParallel is the §III-D parallel chunked converter;
// compare ns/op against the sequential baseline for the speedup.
func BenchmarkTraceConvertParallel(b *testing.B) {
	input := gem5Corpus(b)
	b.SetBytes(int64(len(input)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := trace.ConvertParallel(input, io.Discard, 500, 0, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMemsimReplay measures one cycle-level simulation per memory type
// — the denominator of the DSE-economics comparison (the paper's NVMain
// took ~2 hours per configuration).
func BenchmarkMemsimReplay(b *testing.B) {
	fixtures(b)
	cases := []struct {
		name string
		cfg  memsim.Config
	}{
		{"DRAM", memsim.NewDRAMConfig(2, 2000, 400)},
		{"NVM", memsim.NewNVMConfig(2, 2000, 400, 40)},
		{"HybridCache", memsim.NewHybridConfig(2, 2000, 400, 40, 0.125)},
	}
	flat := memsim.NewHybridConfig(2, 2000, 400, 40, 0.125)
	flat.HybridMode = memsim.HybridFlat
	cases = append(cases, struct {
		name string
		cfg  memsim.Config
	}{"HybridFlat", flat})
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				replayFix(b, c.cfg)
			}
		})
	}
}

// BenchmarkSurrogatePredict measures one trained-surrogate query — the
// numerator of the DSE-economics comparison.
func BenchmarkSurrogatePredict(b *testing.B) {
	fixtures(b)
	svr := ml.NewSVR()
	if err := svr.Fit(fixXs, fixYPower); err != nil {
		b.Fatal(err)
	}
	rf := &ml.RandomForest{NumTrees: 100, Seed: 1}
	if err := rf.Fit(fixXs, fixYPower); err != nil {
		b.Fatal(err)
	}
	b.Run("SVM", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			svr.Predict(fixXs[i%len(fixXs)])
		}
	})
	b.Run("RF", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rf.Predict(fixXs[i%len(fixXs)])
		}
	})
}

// BenchmarkSchedulerAblation compares FCFS and FR-FCFS controllers
// (DESIGN.md ablation).
func BenchmarkSchedulerAblation(b *testing.B) {
	fixtures(b)
	for _, sched := range []memsim.SchedulerKind{memsim.FCFS, memsim.FRFCFS} {
		cfg := memsim.NewDRAMConfig(2, 2000, 400)
		cfg.Scheduler = sched
		b.Run(sched.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				replayFix(b, cfg)
			}
		})
	}
}

// BenchmarkPagePolicyAblation compares open-page and closed-page row
// management.
func BenchmarkPagePolicyAblation(b *testing.B) {
	fixtures(b)
	for _, pol := range []memsim.PagePolicy{memsim.OpenPage, memsim.ClosedPage} {
		cfg := memsim.NewDRAMConfig(2, 2000, 400)
		cfg.Policy = pol
		b.Run(pol.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				replayFix(b, cfg)
			}
		})
	}
}

// BenchmarkHybridCacheAblation sweeps the hybrid DRAM fraction (DESIGN.md
// ablation: cache-size sensitivity).
func BenchmarkHybridCacheAblation(b *testing.B) {
	fixtures(b)
	for _, f := range []float64{0.03, 0.125, 0.5} {
		cfg := memsim.NewHybridConfig(2, 2000, 400, 40, f)
		cfg.CacheLines = int(f * float64(fixFoot))
		b.Run(cfg.Type.String()+"-f"+trimFloat(f), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				replayFix(b, cfg)
			}
		})
	}
}

// BenchmarkBFSVariants compares the BFS implementations whose traces feed
// the workflow (DESIGN.md ablation: trace-shape sensitivity).
func BenchmarkBFSVariants(b *testing.B) {
	fixtures(b)
	b.Run("topdown", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := graph.BFSTopDown(fixGraph, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("bottomup", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := graph.BFSBottomUp(fixGraph, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("diropt", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := graph.BFSDirectionOptimizing(fixGraph, 0, graph.DirectionOptConfig{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSVRKernelAblation compares SVR kernels on the power surrogate.
func BenchmarkSVRKernelAblation(b *testing.B) {
	fixtures(b)
	kernels := []ml.Kernel{ml.RBFKernel{Gamma: 1}, ml.LinearKernel{}, ml.PolyKernel{Gamma: 1, Coef0: 1, Degree: 2}}
	for _, k := range kernels {
		b.Run(k.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				svr := ml.NewSVR()
				svr.Kernel = k
				if err := svr.Fit(fixXs, fixYPower); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkForestSizeAblation sweeps the random-forest ensemble size.
func BenchmarkForestSizeAblation(b *testing.B) {
	fixtures(b)
	for _, n := range []int{10, 50, 200} {
		b.Run("trees-"+itoa(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rf := &ml.RandomForest{NumTrees: n, Seed: 1}
				if err := rf.Fit(fixXs, fixYPower); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSysimTraceGeneration measures the gem5-stand-in stage.
func BenchmarkSysimTraceGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := sysim.PaperWorkloadTraceContext(context.Background(), sysim.DefaultConfig(), 1024, 16, 42, 1, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGraphGeneration measures the GTGraph stand-in.
func BenchmarkGraphGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := graph.GenerateGTGraph(1024, 16, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

func trimFloat(f float64) string {
	switch f {
	case 0.03:
		return "0.03"
	case 0.125:
		return "0.125"
	case 0.5:
		return "0.5"
	default:
		return "x"
	}
}

// BenchmarkMappingAblation compares channel address-mapping schemes
// (DESIGN.md ablation: interleaving vs NUMA-style blocking).
func BenchmarkMappingAblation(b *testing.B) {
	fixtures(b)
	for _, scheme := range []memsim.MappingScheme{memsim.MapRowInterleaved, memsim.MapChannelBlocked} {
		cfg := memsim.NewDRAMConfig(4, 2000, 666)
		cfg.Mapping = scheme
		b.Run(scheme.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				replayFix(b, cfg)
			}
		})
	}
}

// BenchmarkAdaptiveDSE measures the budgeted active-learning exploration
// against the cost of the full sweep (BenchmarkFigure2Sweep).
func BenchmarkAdaptiveDSE(b *testing.B) {
	fixtures(b)
	points := dse.EnumerateSpace(dse.SpaceParams{})
	for i := 0; i < b.N; i++ {
		a := &dse.AdaptiveDSE{Metric: "Power", InitialSamples: 16, BatchSize: 8, MaxSimulations: 64, Seed: 1}
		res, err := a.Run(context.Background(), prepareFix(b), points, dse.SweepOptions{FootprintLines: fixFoot})
		if err != nil {
			b.Fatal(err)
		}
		if res.Simulated > 64 {
			b.Fatalf("budget exceeded: %d", res.Simulated)
		}
	}
}
