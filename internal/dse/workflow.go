package dse

import (
	"context"
	"fmt"
	"sort"

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

// RunWorkflow executes the full pipeline of Figure 1: workload → system
// simulation → trace → memory-simulation sweep → dataset → surrogate
// training and evaluation → recommendations.
func RunWorkflow(opts WorkflowOptions) (*WorkflowResult, error) {
	//lint:ignore ctxpropagate documented top-level wrapper: the no-ctx convenience API mints the root context for RunWorkflowContext
	return RunWorkflowContext(context.Background(), opts)
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

// RunWorkflowContext is RunWorkflow hosted on the guard runtime: each Figure-1
// stage (workload simulation, trace preparation, sweep, invariant gate,
// dataset build, train/evaluate, recommend) runs supervised — heartbeat
// watchdog, per-stage and whole-pipeline deadlines, panic capture — under
// opts.Guard, with the pipeline's memory governor stepping sweep parallelism
// down instead of dying. ctx aborts the sweep (which, with a checkpoint
// configured, stays resumable).
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
		res.Table1, res.Figure3, err = TrainAndEvaluateContext(ctx, res.Dataset,
			opts.Models, opts.TestFrac, opts.SplitSeed, hb.Beat)
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

// TrainAndEvaluate fits every model on every metric (min-max scaled, 80/20
// split per the paper) and returns Table I rows plus Figure 3 series.
func TrainAndEvaluate(ds *Dataset, models []ModelSpec, testFrac float64, splitSeed int64) ([]ModelPerf, map[string]*Figure3Series, error) {
	//lint:ignore ctxpropagate documented top-level wrapper: the no-ctx convenience API mints the root context for TrainAndEvaluateContext
	return TrainAndEvaluateContext(context.Background(), ds, models, testFrac, splitSeed, nil)
}

// TrainAndEvaluateContext is TrainAndEvaluate under supervision: ctx is
// checked before every model×metric fit (the longest uninterruptible unit of
// training work) and beat, when non-nil, marks a heartbeat after each fit.
func TrainAndEvaluateContext(ctx context.Context, ds *Dataset, models []ModelSpec, testFrac float64, splitSeed int64, beat func()) ([]ModelPerf, map[string]*Figure3Series, error) {
	if ds.Len() < 5 {
		return nil, nil, fmt.Errorf("%w: %d rows", ErrNoData, ds.Len())
	}
	// Min-max scale features and each target over the whole corpus (§IV-A.4).
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
			if err := ctx.Err(); err != nil {
				return nil, nil, fmt.Errorf("dse: training cancelled before %s on %s: %w", spec.Name, metric, context.Cause(ctx))
			}
			m := spec.New()
			if err := m.Fit(trX, trY); err != nil {
				return nil, nil, fmt.Errorf("%s on %s: %w", spec.Name, metric, err)
			}
			if beat != nil {
				beat()
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
