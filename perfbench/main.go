// Command perfbench is the repository benchmark. It drives the system from
// outside through each module's public functions, on one of three
// workloads, checks that the outputs are correct, and prints every metric
// by name with its unit; the last line of standard output is one JSON
// object with the result.
//
//	bash perfbench/run.sh --workload paper-pipeline --seed 42 --seconds 30 --trace 0
//
// --trace 0 reports the end-to-end metrics of BENCHMARK.json from an
// untraced run. --trace 1 reports the per-layer metrics: its iterations
// alternate between untraced and traced, the traced ones record spans at
// each layer boundary, and the difference of the two medians is the
// tracing overhead. Spans are kept in memory and written as JSON lines to
// .bench_build/spans/ when the run ends.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"sort"
	"time"

	"graphdse/internal/artifact"
)

// Seeds. defaultSeed is the paper's; pinned digests exist for it only.
// heldOutSeed is kept out of tuning and serves claims: on it, and on every
// other seed, the checks rest on cross-route agreement and
// iteration-to-iteration determinism instead of pinned digests.
const (
	defaultSeed = 42
	heldOutSeed = 2021
)

// benchDir, relative to the repository root, holds everything a run
// writes: daemon spools while it lasts, and span files.
const benchDir = ".bench_build"

// setupReps is how many times each run repeats its set-up; setup_s is the
// median.
const setupReps = 9

// benchWorkers bounds all parallelism a run asks for. It is 1, below nproc:
// on a shared 2-vCPU host, sweeps on one worker and on two, interleaved in
// one process, took 2.0 s and 1.7 s, and their pass-to-pass spread
// (quartile distance over median) was 0.07 against 0.19.
const benchWorkers = 1

type config struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	// workers bounds all parallelism the run asks for: sweep workers, and
	// daemon job workers times their sweep workers.
	workers int
	// jobsPerClient is the daemon-jobs batch size per client. A run has at
	// least two batches, so each client submits at least 2×jobsPerClient
	// jobs and the p90 latency has at least 10 samples beyond it.
	jobsPerClient int
	// workDir holds daemon spools while the run lasts.
	workDir  string
	spanPath string
}

// check is one output check; a failed check counts in error_ratio.
type check struct {
	name   string
	ok     bool
	detail string
}

// run carries one benchmark run's measurements.
type run struct {
	cfg  config
	tr   *tracer
	heap *heapSampler

	attempted, failed int
	checks            []check

	e2e   map[string]float64
	layer map[string]float64
	// notes are extra human-readable lines (sample counts, breakdowns).
	notes []string
}

func newRun(cfg config) *run {
	return &run{cfg: cfg, tr: newTracer(), e2e: map[string]float64{}, layer: map[string]float64{}}
}

// op records one benchmark operation (an iteration or a daemon job).
func (r *run) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		r.notef("operation failed: %v", err)
	}
}

// check records one output check.
func (r *run) check(name string, ok bool, detail string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
	}
	r.checks = append(r.checks, check{name: name, ok: ok, detail: fmt.Sprintf(detail, args...)})
}

func (r *run) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// timeSetup runs fn setupReps times and returns the median duration.
func timeSetup(fn func() error) (float64, error) {
	var ds []float64
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ds = append(ds, time.Since(t0).Seconds())
	}
	return median(ds), nil
}

// iteration is what one timed pass of a workload reports.
type iteration struct {
	wall   float64
	points int
	// latencies are the job latencies the pass observed (one per daemon
	// job; the pass itself elsewhere).
	latencies []float64
	peakMB    float64
	traced    bool
}

// loop runs pass until the run's seconds have elapsed, and at least
// minIters times. In a traced run even passes run untraced and odd passes
// traced, so both medians come from the same process. Each pass counts as
// one operation unless the pass counts its own (daemon jobs).
func (r *run) loop(ctx context.Context, minIters int, passIsOp bool, pass func(i int, traced bool) (iteration, error)) []iteration {
	var its []iteration
	if r.cfg.traced {
		minIters = max(minIters, 2)
	}
	deadline := time.Now().Add(time.Duration(r.cfg.seconds * float64(time.Second)))
	for i := 0; i < minIters || time.Now().Before(deadline); i++ {
		if ctx.Err() != nil {
			break
		}
		traced := r.cfg.traced && i%2 == 1
		r.tr.on.Store(traced)
		r.heap.takePeakMB()
		it, err := pass(i, traced)
		it.peakMB = r.heap.takePeakMB()
		r.tr.on.Store(false)
		if passIsOp {
			r.op(err)
		} else if err != nil {
			r.notef("pass failed: %v", err)
		}
		if err != nil {
			continue
		}
		it.traced = traced
		its = append(its, it)
	}
	return its
}

// summarize fills the end-to-end metrics common to every workload from the
// untraced passes, and the tracing overhead from both kinds. Timings are
// medians over passes; peak_heap_mb is the largest pass peak.
func (r *run) summarize(its []iteration) {
	var walls, tracedWalls, pps, peaks, lats []float64
	for _, it := range its {
		if it.traced {
			tracedWalls = append(tracedWalls, it.wall)
			continue
		}
		walls = append(walls, it.wall)
		pps = append(pps, float64(it.points)/it.wall)
		peaks = append(peaks, it.peakMB)
		if it.latencies != nil {
			lats = append(lats, it.latencies...)
		} else {
			lats = append(lats, it.wall)
		}
	}
	r.e2e["wall_s"] = median(walls)
	r.e2e["sweep_points_per_s"] = median(pps)
	r.e2e["peak_heap_mb"] = slices.Max(append(peaks, 0))
	r.e2e["job_latency_p50_s"] = median(lats)
	r.e2e["job_latency_p90_s"] = percentile(lats, 90)
	r.e2e["jobs_per_s"] = float64(len(lats)) / sum(walls)
	r.layer["bench.latency_samples"] = float64(len(lats))
	if r.cfg.traced {
		r.layer["bench.trace_overhead_s"] = median(tracedWalls) - median(walls)
	}
	r.notef("wall_s over %d untraced passes %.3f (traced: %.3f); job latency percentiles over %d samples",
		len(walls), walls, tracedWalls, len(lats))
}

// result is the JSON object on the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints the human-readable table and then the JSON result line.
func (r *run) report(w io.Writer) error {
	fmt.Fprintf(w, "perfbench %s seed=%d seconds=%g trace=%v workers=%d\n",
		r.cfg.workload, r.cfg.seed, r.cfg.seconds, r.cfg.traced, r.cfg.workers)
	for _, n := range r.notes {
		fmt.Fprintln(w, "  "+n)
	}
	for _, c := range r.checks {
		status := "ok  "
		if !c.ok {
			status = "FAIL"
		}
		fmt.Fprintf(w, "  check %s %s: %s\n", status, c.name, c.detail)
	}
	errorRatio := float64(r.failed) / float64(max(r.attempted, 1))
	fmt.Fprintf(w, "  %-36s %14.6g %s (%d of %d operations)\n", "error_ratio", errorRatio, "ratio", r.failed, r.attempted)

	res := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	emit := func(name string, v float64) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[name] = metric{Value: v, Unit: unitOf(name)}
		fmt.Fprintf(w, "  %-36s %14.6g %s\n", name, v, unitOf(name))
	}
	if r.cfg.traced {
		for _, m := range perLayerMetrics {
			emit(m.Name, r.layer[m.Name])
		}
	} else {
		for _, m := range endToEndMetrics {
			emit(m.Name, r.e2e[m.Name])
		}
	}
	if res.Attempted < 1 {
		res.Attempted = 1
		res.Failed = 1
		res.Correct = false
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// printShares adds the per-layer share of one parent span to the notes, in
// descending order.
func (r *run) printShares(parent string, spans []span) {
	sh := shares(spans, parent)
	names := make([]string, 0, len(sh))
	for n := range sh {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return sh[names[i]] > sh[names[j]] })
	for _, n := range names {
		r.notef("share of %s: %-28s %5.1f%%", parent, n, 100*sh[n])
	}
}

var workloads = map[string]func(ctx context.Context, r *run) error{
	wlPipeline: runPipeline,
	wlTrace:    runTraceSweep,
	wlDaemon:   runDaemonJobs,
}

func main() {
	workload := flag.String("workload", "", "workload: paper-pipeline, trace-sweep or daemon-jobs")
	seed := flag.Int64("seed", defaultSeed, "workload seed (42 is the paper's; "+fmt.Sprint(heldOutSeed)+" is held out for claims)")
	seconds := flag.Float64("seconds", 30, "how long the timed part runs")
	traced := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics from an untraced run")
	flag.Parse()

	fn, ok := workloads[*workload]
	if !ok || (*traced != 0 && *traced != 1) || *seconds < 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload %v and --trace 0|1\n", workloadNames)
		os.Exit(2)
	}
	cfg := config{
		workload:      *workload,
		seed:          *seed,
		seconds:       *seconds,
		traced:        *traced == 1,
		workers:       benchWorkers,
		jobsPerClient: 25,
		workDir:       benchDir,
		spanPath:      filepath.Join(benchDir, "spans", fmt.Sprintf("%s-seed%d.jsonl", *workload, *seed)),
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	r, err := execute(ctx, cfg, fn)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := r.report(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// execute runs one workload and, for a traced run, writes its spans.
func execute(ctx context.Context, cfg config, fn func(context.Context, *run) error) (*run, error) {
	r := newRun(cfg)
	r.heap = startHeapSampler()
	err := fn(ctx, r)
	r.heap.close()
	if err != nil {
		return nil, err
	}
	if cfg.traced && cfg.spanPath != "" {
		spans := r.tr.snapshot()
		if err := artifact.OS.MkdirAll(filepath.Dir(cfg.spanPath), 0o755); err != nil {
			return nil, fmt.Errorf("span dir: %w", err)
		}
		if err := saveSpans(cfg.spanPath, spans); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		r.notef("%d spans written to %s", len(spans), cfg.spanPath)
	}
	return r, nil
}
