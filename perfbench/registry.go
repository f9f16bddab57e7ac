package main

// The metric registry. BENCHMARK.json at the repository root is the
// contract the benchmark is judged against; the tests check that every
// name, unit, direction and bound here matches it.

// Workload names, as passed to --workload.
const (
	wlPipeline = "paper-pipeline"
	wlTrace    = "trace-sweep"
	wlDaemon   = "daemon-jobs"
)

var workloadNames = []string{wlPipeline, wlTrace, wlDaemon}

// endToEnd is a metric a user of the system sees. Bound is the share of the
// parent commit's median by which the metric may worsen.
type endToEnd struct {
	Name, Unit, Better string
	Bound              float64
}

// endToEndMetrics are reported by every untraced run. error_ratio is not
// among them: it is 0 on a healthy run, so it is carried by the result
// line's attempted/failed counts and printed by name in the table.
var endToEndMetrics = []endToEnd{
	{"setup_s", "s", "lower", 0.25},
	{"wall_s", "s", "lower", 0.25},
	{"sweep_points_per_s", "1/s", "higher", 0.25},
	{"peak_heap_mb", "MB", "lower", 0.2},
	{"job_latency_p50_s", "s", "lower", 0.25},
	{"job_latency_p90_s", "s", "lower", 0.25},
	{"jobs_per_s", "1/s", "higher", 0.25},
	{"point_failure_ratio", "ratio", "lower", 0.05},
	{"surrogate_r2_min", "ratio", "higher", 0.1},
}

// perLayer is a metric of one layer, reported by traced runs. Moves names
// the end-to-end metrics it should move and On the workloads where it
// should move them (first entry: where it moves them most). Every traced
// run reports every per-layer metric; a layer the workload never calls
// reads 0.
type perLayer struct {
	Name, Unit, Better string
	Moves              []string
	On                 []string
}

var (
	replayMoves  = []string{"wall_s", "sweep_points_per_s"}
	replayOn     = []string{wlTrace, wlPipeline, wlDaemon}
	convertMoves = []string{"wall_s"}
	mlMoves      = []string{"wall_s"}
	daemonMoves  = []string{"job_latency_p50_s", "job_latency_p90_s", "jobs_per_s"}
)

var perLayerMetrics = []perLayer{
	{"memsim.replay_ns_per_event.DRAM", "ns", "lower", replayMoves, replayOn},
	{"memsim.replay_ns_per_event.NVM", "ns", "lower", replayMoves, replayOn},
	{"memsim.replay_ns_per_event.Hybrid", "ns", "lower", replayMoves, replayOn},
	{"memsim.partition_builds", "count", "lower", replayMoves, replayOn},
	{"memsim.partition_hit_ratio", "ratio", "higher", replayMoves, replayOn},
	{"dse.sweep_s", "s", "lower", replayMoves, replayOn},
	{"dse.worker_utilisation", "ratio", "higher", replayMoves, replayOn},
	{"dse.attempts", "count", "lower", replayMoves, replayOn},
	{"dse.points_failed", "count", "lower", replayMoves, replayOn},

	{"trace.convert_s", "s", "lower", convertMoves, []string{wlTrace}},
	{"trace.convert_mb_per_s", "MB/s", "higher", convertMoves, []string{wlTrace}},
	{"trace.bad_lines", "count", "lower", convertMoves, []string{wlTrace}},
	{"memsim.prepare_s", "s", "lower", convertMoves, []string{wlTrace}},

	{"sysim.trace_s", "s", "lower", []string{"setup_s", "job_latency_p90_s"}, []string{wlTrace, wlDaemon}},
	{"sysim.events", "count", "lower", []string{"setup_s", "job_latency_p90_s"}, []string{wlTrace, wlDaemon}},

	{"ml.fit_s.Linear", "s", "lower", mlMoves, []string{wlPipeline}},
	{"ml.fit_s.SVM", "s", "lower", mlMoves, []string{wlPipeline}},
	{"ml.fit_s.RF", "s", "lower", mlMoves, []string{wlPipeline}},
	{"ml.fit_s.GB", "s", "lower", mlMoves, []string{wlPipeline}},
	{"ml.predict_us", "us", "lower", mlMoves, []string{wlPipeline}},

	{"guard.stage_s.workload", "s", "lower", mlMoves, []string{wlPipeline}},
	{"guard.stage_s.trace-prep", "s", "lower", mlMoves, []string{wlPipeline}},
	{"guard.stage_s.sweep", "s", "lower", mlMoves, []string{wlPipeline}},
	{"guard.stage_s.invariant-gate", "s", "lower", mlMoves, []string{wlPipeline}},
	{"guard.stage_s.dataset", "s", "lower", mlMoves, []string{wlPipeline}},
	{"guard.stage_s.train", "s", "lower", mlMoves, []string{wlPipeline}},
	{"guard.stage_s.recommend", "s", "lower", mlMoves, []string{wlPipeline}},
	{"guard.downshifts", "count", "lower", mlMoves, []string{wlPipeline}},

	{"dsed.submit_s.p50", "s", "lower", daemonMoves, []string{wlDaemon}},
	{"dsed.queue_wait_s.p50", "s", "lower", daemonMoves, []string{wlDaemon}},
	{"dsed.run_s.p50", "s", "lower", daemonMoves, []string{wlDaemon}},
	{"dsed.result_s.p50", "s", "lower", daemonMoves, []string{wlDaemon}},
	{"dsed.trace_cache_hit_ratio", "ratio", "higher", daemonMoves, []string{wlDaemon}},
	{"dsed.journal_events_per_job", "count", "lower", daemonMoves, []string{wlDaemon}},
	{"dsed.rejected", "count", "lower", daemonMoves, []string{wlDaemon}},
	{"artifact.fsyncs_per_job", "count", "lower", daemonMoves, []string{wlDaemon}},
	{"artifact.fsync_s_per_job", "s", "lower", daemonMoves, []string{wlDaemon}},
	{"artifact.bytes_written_per_job", "bytes", "lower", daemonMoves, []string{wlDaemon}},
	{"artifact.renames_per_job", "count", "lower", daemonMoves, []string{wlDaemon}},
	{"dsedclient.reconnects", "count", "lower", daemonMoves, []string{wlDaemon}},

	// The benchmark's own figures: tracing overhead (traced minus untraced
	// wall_s, measured in the same process) and how many job latencies the
	// percentiles rest on.
	{"bench.trace_overhead_s", "s", "lower", []string{"wall_s"}, workloadNames},
	{"bench.latency_samples", "count", "higher", []string{"job_latency_p50_s", "job_latency_p90_s"}, workloadNames},
}

func unitOf(name string) string {
	for _, m := range endToEndMetrics {
		if m.Name == name {
			return m.Unit
		}
	}
	for _, m := range perLayerMetrics {
		if m.Name == name {
			return m.Unit
		}
	}
	return ""
}
