package dse

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"graphdse/internal/memsim"
	"graphdse/internal/sysim"
	"graphdse/internal/trace"
)

// smallSpace keeps tests fast: 2 cells × 13 = 26 points.
func smallSpace() SpaceParams {
	return SpaceParams{
		CPUFreqsMHz:  []float64{2000, 6500},
		CtrlFreqsMHz: []float64{400},
		Channels:     []int{2},
		Fractions:    []float64{0.25, 0.5, 0.75},
	}
}

func smallTrace(t testing.TB) []trace.Event {
	t.Helper()
	m, _, err := sysim.PaperWorkloadTraceContext(context.Background(), sysim.DefaultConfig(), 256, 8, 7, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	return m.Trace()
}

// sweepEvents prepares events afresh and sweeps them: the one-shot route
// most tests take.
func sweepEvents(events []trace.Event, points []DesignPoint, opts SweepOptions) ([]RunRecord, error) {
	pt, err := memsim.Prepare(events)
	if err != nil {
		return nil, err
	}
	return SweepPreparedContext(context.Background(), pt, points, opts)
}

func TestSweepProducesResults(t *testing.T) {
	events := smallTrace(t)
	points := EnumerateSpace(smallSpace())
	records, err := sweepEvents(events, points, SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != len(points) {
		t.Fatalf("records = %d", len(records))
	}
	for i, r := range records {
		if r.Failed {
			t.Fatalf("record %d failed without injection: %v", i, r.Err)
		}
		if r.Result == nil || r.Result.AvgBandwidthPerBank <= 0 {
			t.Fatalf("record %d has no result", i)
		}
		if r.Point.ID() != points[i].ID() {
			t.Fatal("records out of order")
		}
	}
}

func TestSweepFailureInjectionDeterministic(t *testing.T) {
	events := smallTrace(t)
	points := EnumerateSpace(SpaceParams{}) // full 416
	// Don't simulate: rate 1.0 fails everything before running, so this is fast.
	_, err := sweepEvents(events, points, SweepOptions{Faults: PaperFaults(0.9999999, 0)})
	if err == nil {
		t.Fatal("expected ErrAllFailed at ~100% failure rate")
	}

	count := func(seed uint64) int {
		n := 0
		for _, p := range points {
			if injectedFailure(p, PaperFailureRate, seed) {
				n++
			}
		}
		return n
	}
	a, b := count(1), count(1)
	if a != b {
		t.Fatal("failure injection must be deterministic")
	}
	// Rate ~10% of 416 ≈ 42 failures, loosely.
	if a < 20 || a > 70 {
		t.Fatalf("injected failures = %d of 416, want ~42", a)
	}
}

func TestSweepInputValidation(t *testing.T) {
	if _, err := sweepEvents(nil, EnumerateSpace(smallSpace()), SweepOptions{}); err == nil {
		t.Fatal("expected empty-trace error")
	}
	if _, err := sweepEvents(smallTrace(t), nil, SweepOptions{}); err == nil {
		t.Fatal("expected empty-space error")
	}
}

func TestBuildDataset(t *testing.T) {
	events := smallTrace(t)
	points := EnumerateSpace(smallSpace())
	records, err := sweepEvents(events, points, SweepOptions{Faults: PaperFaults(0.2, 3)})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := BuildDataset(records)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() >= len(points) {
		t.Fatal("failure injection should drop rows")
	}
	if ds.Len() != len(ds.Points) {
		t.Fatal("points misaligned")
	}
	for _, name := range memsim.MetricNames {
		y, err := ds.Metric(name)
		if err != nil {
			t.Fatal(err)
		}
		if len(y) != ds.Len() {
			t.Fatalf("metric %s has %d values", name, len(y))
		}
	}
	if _, err := ds.Metric("nope"); err == nil {
		t.Fatal("expected unknown-metric error")
	}
	if _, err := BuildDataset(nil); err == nil {
		t.Fatal("expected no-data error")
	}
}

func TestBuildFigure2GroupsAndAverages(t *testing.T) {
	events := smallTrace(t)
	points := EnumerateSpace(smallSpace())
	records, err := sweepEvents(events, points, SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rows := BuildFigure2(records)
	if len(rows) != 2 { // two CPU frequencies × 1 ctrl × 1 ch
		t.Fatalf("figure 2 rows = %d, want 2", len(rows))
	}
	for _, row := range rows {
		if row.Count[memsim.DRAM] != 1 || row.Count[memsim.NVM] != 6 || row.Count[memsim.Hybrid] != 6 {
			t.Fatalf("row counts %+v", row.Count)
		}
		for _, mean := range row.Mean {
			if len(mean) != len(memsim.MetricNames) {
				t.Fatalf("mean length %d", len(mean))
			}
		}
	}
	// Sorted by CPU frequency.
	if rows[0].CPUFreqMHz > rows[1].CPUFreqMHz {
		t.Fatal("rows not sorted")
	}
}

func TestRunWorkflowEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end workflow in -short mode")
	}
	res, err := RunWorkflowContext(context.Background(), WorkflowOptions{
		Vertices:   256,
		EdgeFactor: 8,
		Seed:       42,
		Space:      smallSpace(),
		Sweep:      SweepOptions{Faults: PaperFaults(PaperFailureRate, 1)},
		SplitSeed:  7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TraceEvents == 0 {
		t.Fatal("no trace produced")
	}
	if res.SurvivorCount == 0 || res.SurvivorCount > 26 {
		t.Fatalf("survivors = %d", res.SurvivorCount)
	}
	// Table I: 6 metrics × 4 models = 24 rows.
	if len(res.Table1) != 24 {
		t.Fatalf("table1 rows = %d, want 24", len(res.Table1))
	}
	for _, p := range res.Table1 {
		if p.MSE < 0 {
			t.Fatalf("negative MSE for %s/%s", p.Metric, p.Model)
		}
	}
	// Figure 3: one series per metric, aligned lengths.
	if len(res.Figure3) != len(memsim.MetricNames) {
		t.Fatalf("figure3 panels = %d", len(res.Figure3))
	}
	for name, s := range res.Figure3 {
		if len(s.Truth) == 0 {
			t.Fatalf("panel %s empty", name)
		}
		for model, pred := range s.Pred {
			if len(pred) != len(s.Truth) {
				t.Fatalf("panel %s model %s misaligned", name, model)
			}
		}
	}
	// Recommendations must be populated.
	rec := res.Recommendation
	if len(rec.BestModel) != len(memsim.MetricNames) {
		t.Fatalf("best models = %d", len(rec.BestModel))
	}
	if rec.BestBandwidthMBs <= 0 {
		t.Fatal("bandwidth recommendation empty")
	}
}

func TestRenderers(t *testing.T) {
	events := smallTrace(t)
	points := EnumerateSpace(smallSpace())
	records, err := sweepEvents(events, points, SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := BuildDataset(records)
	if err != nil {
		t.Fatal(err)
	}
	table1, fig3, err := TrainAndEvaluateContext(context.Background(), ds, []ModelSpec{DefaultModels(1)[0]}, 0.2, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	RenderFigure2(&buf, BuildFigure2(records))
	if !strings.Contains(buf.String(), "CPUFreq") {
		t.Fatal("figure2 render missing header")
	}
	buf.Reset()
	RenderTable1(&buf, table1)
	if !strings.Contains(buf.String(), "best") {
		t.Fatal("table1 render missing best marker")
	}
	buf.Reset()
	RenderFigure3(&buf, fig3["Power"])
	if !strings.Contains(buf.String(), "truth") {
		t.Fatal("figure3 render missing truth column")
	}
	buf.Reset()
	RenderRecommendations(&buf, Recommend(BuildFigure2(records), table1))
	if !strings.Contains(buf.String(), "recommendations") {
		t.Fatal("recommendations render empty")
	}
}

func TestTrainAndEvaluateTooFewRows(t *testing.T) {
	ds := &Dataset{Y: map[string][]float64{}}
	if _, _, err := TrainAndEvaluateContext(context.Background(), ds, DefaultModels(1), 0.2, 1, nil); err == nil {
		t.Fatal("expected error for empty dataset")
	}
}

func TestPlotFigure3(t *testing.T) {
	events := smallTrace(t)
	records, err := sweepEvents(events, EnumerateSpace(smallSpace()), SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := BuildDataset(records)
	if err != nil {
		t.Fatal(err)
	}
	_, fig3, err := TrainAndEvaluateContext(context.Background(), ds, DefaultModels(1), 0.25, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := PlotFigure3(&buf, fig3["Power"], "SVM", 12); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "SVM") || !strings.Contains(out, "Power") {
		t.Fatalf("plot missing labels:\n%s", out)
	}
	// Plot body must contain plotted points.
	if !strings.ContainsAny(out, "*o#") {
		t.Fatalf("plot has no points:\n%s", out)
	}
	if err := PlotFigure3(&buf, fig3["Power"], "nope", 12); err == nil {
		t.Fatal("expected unknown-model error")
	}
	if err := PlotFigure3(&buf, &Figure3Series{Metric: "x", Pred: map[string][]float64{"m": nil}}, "m", 5); err == nil {
		t.Fatal("expected empty-series error")
	}
}
