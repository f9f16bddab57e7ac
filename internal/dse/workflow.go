package dse

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"

	"graphdse/internal/guard"
	"graphdse/internal/memsim"
	"graphdse/internal/ml"
	"graphdse/internal/sysim"
	"graphdse/internal/trace"
)

// ModelSpec names a surrogate-model factory for the comparison tables.
type ModelSpec struct {
	Name string
	New  func() ml.Regressor
}

// DefaultModels returns the four models of Table I: the linear-regression
// baseline, SVM (ε-SVR), random forest, and gradient boosting.
func DefaultModels(seed int64) []ModelSpec {
	return []ModelSpec{
		{Name: "Linear", New: func() ml.Regressor { return &ml.LinearRegression{} }},
		{Name: "SVM", New: func() ml.Regressor {
			s := ml.NewSVR()
			s.Seed = seed
			return s
		}},
		{Name: "RF", New: func() ml.Regressor {
			return &ml.RandomForest{NumTrees: 100, Seed: seed}
		}},
		{Name: "GB", New: func() ml.Regressor {
			g := ml.NewGradientBoosting()
			g.Seed = seed
			return g
		}},
	}
}

// ExtendedModels adds the models beyond the paper's four — ridge, k-NN,
// and an MLP — for the extended comparison table.
func ExtendedModels(seed int64) []ModelSpec {
	return append(DefaultModels(seed),
		ModelSpec{Name: "Ridge", New: func() ml.Regressor { return &ml.Ridge{Lambda: 1e-3} }},
		ModelSpec{Name: "KNN", New: func() ml.Regressor { return &ml.KNN{K: 5, Weighted: true} }},
		ModelSpec{Name: "MLP", New: func() ml.Regressor {
			m := ml.NewMLP()
			m.Seed = seed
			return m
		}},
	)
}

// ModelPerf is one cell group of Table I: a model's test MSE and R² on one
// memory performance metric (min-max-scaled, as in the paper).
type ModelPerf struct {
	Metric string
	Model  string
	MSE    float64
	R2     float64
}

// Figure3Series is one panel of Figure 3: the scaled ground-truth test
// series and each model's predictions, indexed by test-set position.
type Figure3Series struct {
	Metric string
	Truth  []float64
	Pred   map[string][]float64
}

// Figure2Row is one row group of Figure 2: per-(CPU, controller, channels)
// cell, the mean of each metric for each memory type over surviving
// configurations.
type Figure2Row struct {
	CPUFreqMHz  float64
	CtrlFreqMHz float64
	Channels    int
	// Mean[type][metricIndex] with metric order memsim.MetricNames.
	Mean  map[memsim.MemType][]float64
	Count map[memsim.MemType]int
}

// WorkflowOptions configures the end-to-end run. Zero values reproduce the
// paper's setup (1,024 vertices, edge factor 16, 80/20 split).
type WorkflowOptions struct {
	Vertices   int
	EdgeFactor int
	Seed       int64
	// Repeats runs BFS from this many roots to scale the trace.
	Repeats int
	// SysConfig is the system-simulator (gem5 stand-in) configuration.
	SysConfig sysim.Config
	Space     SpaceParams
	Sweep     SweepOptions
	// TestFrac is the held-out share (default 0.2).
	TestFrac  float64
	SplitSeed int64
	Models    []ModelSpec
	// Guard supervises the run: per-stage watchdogs and deadlines, a
	// whole-pipeline deadline, and a memory budget with graceful
	// degradation. The zero value supervises panics only.
	Guard guard.PipelineOptions
}

func (o *WorkflowOptions) fill() {
	if o.Vertices == 0 {
		o.Vertices = 1024
	}
	if o.EdgeFactor == 0 {
		o.EdgeFactor = 16
	}
	if o.Repeats <= 0 {
		o.Repeats = 1
	}
	if o.SysConfig.CPUFreqMHz == 0 {
		o.SysConfig = sysim.DefaultConfig()
	}
	if o.TestFrac <= 0 || o.TestFrac >= 1 {
		o.TestFrac = 0.2
	}
	if len(o.Models) == 0 {
		o.Models = DefaultModels(o.Seed)
	}
}

// WorkflowResult bundles everything the paper reports.
type WorkflowResult struct {
	TraceEvents    int
	TraceStats     trace.Stats
	Records        []RunRecord
	SurvivorCount  int
	Dataset        *Dataset
	Table1         []ModelPerf
	Figure3        map[string]*Figure3Series
	Figure2        []Figure2Row
	Recommendation Recommendations
	// FailureLog records every configuration the sweep lost (crash, hang,
	// exhausted retries, corrupted metrics, impossible physics), mirroring
	// the paper's ~42 discarded NVMain runs.
	FailureLog []FailureRecord
	// Gate reports the physical-invariant pass between sweep and dataset.
	Gate *GateReport
	// Supervision is the guard runtime's run report: per-stage outcomes,
	// every degradation downshift, and the peak heap observed.
	Supervision *guard.Report
}

// The pipeline governor doubles as the trace converter's degradation hook.
var _ trace.WorkerGovernor = (*guard.Governor)(nil)

// beatingSource forwards a trace source while marking a heartbeat per
// batch, so the trace-prep stage's watchdog sees decode progress.
type beatingSource struct {
	src trace.Source
	hb  *guard.Heartbeat
}

func (b beatingSource) Next(batch []trace.Event) (int, error) {
	n, err := b.src.Next(batch)
	if n > 0 {
		b.hb.Beat()
	}
	return n, err
}

// testHookGovernor, when non-nil, receives the pipeline's governor before
// the first stage runs, so tests can signal or await memory pressure.
var testHookGovernor func(*guard.Governor)

// RunWorkflowContext executes the full pipeline of Figure 1: workload →
// system simulation → trace → memory-simulation sweep → dataset →
// surrogate training and evaluation → recommendations. It is hosted on the
// guard runtime: each Figure-1
// stage (workload simulation, trace preparation, sweep, invariant gate,
// dataset build, train/evaluate, recommend) runs supervised — heartbeat
// watchdog, per-stage and whole-pipeline deadlines, panic capture — under
// opts.Guard, with the pipeline's memory governor stepping sweep and
// training parallelism down instead of dying. ctx aborts the sweep (which,
// with a checkpoint configured, stays resumable).
//
// The workflow degrades gracefully under sweep failures — it proceeds
// whenever the survivor count clears opts.Sweep.MinSurvivors after the
// physical-invariant gate, and otherwise returns the structured
// *SweepFailureError. On error the returned result is still non-nil and
// carries the Supervision report (plus any records the sweep completed), so
// callers can render what happened before the failure.
func RunWorkflowContext(ctx context.Context, opts WorkflowOptions) (*WorkflowResult, error) {
	opts.fill()
	p := guard.NewPipeline(opts.Guard)
	ctx, stop := p.Start(ctx)
	defer stop()
	if testHookGovernor != nil {
		testHookGovernor(p.Governor())
	}
	res := &WorkflowResult{}
	err := runWorkflowStages(ctx, p, opts, res)
	res.Supervision = p.Report()
	if err != nil {
		return res, err
	}
	return res, nil
}

// runWorkflowStages executes the supervised stage sequence, filling res as
// stages complete.
func runWorkflowStages(ctx context.Context, p *guard.Pipeline, opts WorkflowOptions, res *WorkflowResult) error {
	var machine *sysim.Machine
	if err := p.Run(ctx, "workload", func(ctx context.Context, hb *guard.Heartbeat) error {
		var err error
		machine, _, err = sysim.PaperWorkloadTraceContext(ctx, opts.SysConfig,
			opts.Vertices, opts.EdgeFactor, opts.Seed, opts.Repeats, hb.Beat)
		if err != nil {
			return fmt.Errorf("system simulation: %w", err)
		}
		return nil
	}); err != nil {
		return err
	}

	// Stream the recorded trace straight into the sweep-shared prepared
	// form: one validation/decode pass for the entire pipeline, with no
	// intermediate trace copy.
	var pt *memsim.PreparedTrace
	if err := p.Run(ctx, "trace-prep", func(ctx context.Context, hb *guard.Heartbeat) error {
		var err error
		pt, err = memsim.PrepareSource(beatingSource{machine.TraceSource(), hb})
		if err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		return nil
	}); err != nil {
		return err
	}
	res.TraceEvents = pt.Len()
	res.TraceStats = pt.Stats()

	sweepOpts := opts.Sweep
	if sweepOpts.FootprintLines == 0 {
		sweepOpts.FootprintLines = int(machine.Layout().Footprint()) / 64
	}
	if sweepOpts.Governor == nil {
		sweepOpts.Governor = p.Governor()
	}
	points := EnumerateSpace(opts.Space)
	if err := p.Run(ctx, "sweep", func(ctx context.Context, hb *guard.Heartbeat) error {
		inner := sweepOpts
		userOnPoint := sweepOpts.OnPoint
		inner.OnPoint = func(done, total int) {
			hb.Beat()
			if userOnPoint != nil {
				userOnPoint(done, total)
			}
		}
		var err error
		res.Records, err = SweepPreparedContext(ctx, pt, points, inner)
		if err != nil {
			return fmt.Errorf("sweep: %w", err)
		}
		return nil
	}); err != nil {
		return err
	}

	// Physical-invariant gate between sweep and dataset: quarantine
	// finite-but-impossible results, then re-check the survivorship
	// contract over what remains.
	if err := p.Run(ctx, "invariant-gate", func(ctx context.Context, hb *guard.Heartbeat) error {
		var err error
		res.Gate, err = ApplyInvariantGate(res.Records, int64(res.TraceEvents))
		if err != nil {
			return err
		}
		hb.Beat()
		res.FailureLog = BuildFailureLog(res.Records)
		return CheckSurvivors(res.Records, sweepOpts.MinSurvivors)
	}); err != nil {
		return err
	}

	if err := p.Run(ctx, "dataset", func(ctx context.Context, hb *guard.Heartbeat) error {
		var err error
		res.Dataset, err = BuildDataset(res.Records)
		if err != nil {
			return err
		}
		res.SurvivorCount = res.Dataset.Len()
		return nil
	}); err != nil {
		return err
	}

	if err := p.Run(ctx, "train", func(ctx context.Context, hb *guard.Heartbeat) error {
		var err error
		// Training shares the cores, so memory pressure trims its pool the
		// same way it trims the sweep's.
		workers := p.Governor().Workers("train", runtime.GOMAXPROCS(0))
		res.Table1, res.Figure3, err = trainAndEvaluate(ctx, res.Dataset,
			opts.Models, opts.TestFrac, opts.SplitSeed, hb.Beat, workers)
		return err
	}); err != nil {
		return err
	}

	return p.Run(ctx, "recommend", func(ctx context.Context, hb *guard.Heartbeat) error {
		res.Figure2 = BuildFigure2(res.Records)
		res.Recommendation = Recommend(res.Figure2, res.Table1)
		return nil
	})
}

// TrainAndEvaluateContext fits every model on every metric (min-max scaled,
// 80/20 split per the paper) and returns Table I rows plus Figure 3 series.
//
// Concurrent fits: the six per-metric scaled targets and train/test splits
// are prepared serially, then the metric×model fits run on a pool of
// runtime.GOMAXPROCS(0) workers, dispatched in table order. Each fit gets a
// fresh spec.New() and writes its predictions into its own (metric, model)
// slot; Table I and Figure 3 are assembled from the slots in table order,
// so the output is bit-identical to a serial loop whatever the pool size or
// completion order.
//
// Supervision: ctx is checked before every fit (the longest uninterruptible
// unit of training work), and a fit that finishes after ctx is done is
// discarded. beat, when non-nil, marks a heartbeat after each fit; calls
// are serialized and stop once ctx is done, so a callback that cancels
// after N beats sees exactly N. A panicking fit becomes a *PanicError. On
// failure the error is the one a serial loop would return, that of the
// lowest failing (metric, model): dispatch stops after the first failure,
// and every lower fit was already dispatched.
func TrainAndEvaluateContext(ctx context.Context, ds *Dataset, models []ModelSpec, testFrac float64, splitSeed int64, beat func()) ([]ModelPerf, map[string]*Figure3Series, error) {
	return trainAndEvaluate(ctx, ds, models, testFrac, splitSeed, beat, runtime.GOMAXPROCS(0))
}

// metricSplit is one metric's scaled train/test split.
type metricSplit struct {
	trX, teX [][]float64
	trY, teY []float64
}

// trainAndEvaluate is TrainAndEvaluateContext on a pool of the given number
// of workers (at least one, at most one per fit).
func trainAndEvaluate(ctx context.Context, ds *Dataset, models []ModelSpec, testFrac float64, splitSeed int64, beat func(), workers int) ([]ModelPerf, map[string]*Figure3Series, error) {
	if ds.Len() < 5 {
		return nil, nil, fmt.Errorf("%w: %d rows", ErrNoData, ds.Len())
	}
	// Min-max scale features and each target over the whole corpus (§IV-A.4).
	var xs ml.MinMaxScaler
	X, err := xs.FitTransform(ds.X)
	if err != nil {
		return nil, nil, err
	}
	splits := make([]metricSplit, len(memsim.MetricNames))
	for mi, metric := range memsim.MetricNames {
		yRaw, err := ds.Metric(metric)
		if err != nil {
			return nil, nil, err
		}
		var ys ml.VecMinMaxScaler
		if err := ys.Fit(yRaw); err != nil {
			return nil, nil, err
		}
		s := &splits[mi]
		s.trX, s.trY, s.teX, s.teY, err = ml.TrainTestSplit(X, ys.Transform(yRaw), testFrac, splitSeed)
		if err != nil {
			return nil, nil, err
		}
	}

	// Fit k trains model k%len(models) on metric k/len(models) and owns
	// slot k of preds and errs.
	preds := make([][]float64, len(splits)*len(models))
	errs := make([]error, len(preds))
	label := func(k int) string {
		return models[k%len(models)].Name + " on " + memsim.MetricNames[k/len(models)]
	}
	cancelled := func(k int) error {
		return fmt.Errorf("dse: training cancelled before %s: %w", label(k), context.Cause(ctx))
	}
	var beatMu sync.Mutex
	// finished reports a completed fit to beat unless ctx is done, in which
	// case the fit is to be discarded.
	finished := func() bool {
		beatMu.Lock()
		defer beatMu.Unlock()
		if ctx.Err() != nil {
			return false
		}
		if beat != nil {
			beat()
		}
		return true
	}
	fit := func(k int) (err error) {
		if ctx.Err() != nil {
			return cancelled(k)
		}
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("%s: %w", label(k), &PanicError{Value: r, Stack: debug.Stack()})
			}
		}()
		s := &splits[k/len(models)]
		m := models[k%len(models)].New()
		if err := m.Fit(s.trX, s.trY); err != nil {
			return fmt.Errorf("%s: %w", label(k), err)
		}
		if !finished() {
			return cancelled(k)
		}
		preds[k] = ml.PredictBatch(m, s.teX)
		return nil
	}

	workers = max(1, min(workers, len(preds)))
	var failed atomic.Bool
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range jobs {
				if errs[k] = fit(k); errs[k] != nil {
					failed.Store(true)
				}
			}
		}()
	}
dispatch:
	for k := range preds {
		if failed.Load() {
			break
		}
		select {
		case jobs <- k:
		case <-ctx.Done():
			errs[k] = cancelled(k)
			break dispatch
		}
	}
	close(jobs)
	wg.Wait()
	// Every fit below the lowest failure ran, so the first error in slot
	// order is the serial loop's, and with none every slot is filled.
	for _, err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}

	var table []ModelPerf
	fig3 := map[string]*Figure3Series{}
	for mi, metric := range memsim.MetricNames {
		s := &splits[mi]
		series := &Figure3Series{Metric: metric, Truth: s.teY, Pred: map[string][]float64{}}
		for j, spec := range models {
			pred := preds[mi*len(models)+j]
			series.Pred[spec.Name] = pred
			table = append(table, ModelPerf{
				Metric: metric,
				Model:  spec.Name,
				MSE:    ml.MSE(s.teY, pred),
				R2:     ml.R2(s.teY, pred),
			})
		}
		fig3[metric] = series
	}
	return table, fig3, nil
}

// BuildFigure2 aggregates surviving records into the Figure 2 table.
func BuildFigure2(records []RunRecord) []Figure2Row {
	type key struct {
		cpu, ctrl float64
		ch        int
	}
	rows := map[key]*Figure2Row{}
	for _, r := range Survivors(records) {
		k := key{r.Point.CPUFreqMHz, r.Point.CtrlFreqMHz, r.Point.Channels}
		row, ok := rows[k]
		if !ok {
			row = &Figure2Row{
				CPUFreqMHz: k.cpu, CtrlFreqMHz: k.ctrl, Channels: k.ch,
				Mean:  map[memsim.MemType][]float64{},
				Count: map[memsim.MemType]int{},
			}
			rows[k] = row
		}
		vec := r.Result.MetricVector()
		acc := row.Mean[r.Point.Type]
		if acc == nil {
			acc = make([]float64, len(vec))
		}
		for i, v := range vec {
			acc[i] += v
		}
		row.Mean[r.Point.Type] = acc
		row.Count[r.Point.Type]++
	}
	out := make([]Figure2Row, 0, len(rows))
	for _, row := range rows {
		for t, acc := range row.Mean {
			n := float64(row.Count[t])
			for i := range acc {
				acc[i] /= n
			}
		}
		out = append(out, *row)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.CPUFreqMHz != b.CPUFreqMHz {
			return a.CPUFreqMHz < b.CPUFreqMHz
		}
		if a.CtrlFreqMHz != b.CtrlFreqMHz {
			return a.CtrlFreqMHz < b.CtrlFreqMHz
		}
		return a.Channels < b.Channels
	})
	return out
}
