package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"graphdse/internal/artifact"
	"graphdse/internal/dse"
	"graphdse/internal/dsed"
	"graphdse/internal/dsedclient"
	"graphdse/internal/memsim"
	"graphdse/internal/sysim"
)

// The daemon-jobs workload: a closed loop of daemonClients clients against
// an in-process daemon on a fresh loopback spool. Each client waits for its
// job's result before submitting the next. A job is one CPU×controller
// cell of the paper's space (26 points). Every other job of a client reuses
// the pass seed's workload, so its trace is served from the daemon's trace
// cache; the others use distinct seeds, miss the cache and pay for sysim
// and memsim.Prepare.
const (
	daemonClients = 2
	// verifyEvery: every hit job is checked against the in-process
	// reference, and every verifyEvery-th miss job against its own.
	verifyEvery = 10
)

type cell struct{ cpu, ctrl float64 }

// spaceCells lists the CPU×controller cells of the paper's space in
// enumeration order.
func spaceCells() []cell {
	var out []cell
	seen := map[cell]bool{}
	for _, p := range dse.EnumerateSpace(dse.SpaceParams{}) {
		c := cell{p.CPUFreqMHz, p.CtrlFreqMHz}
		if !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	return out
}

func (c cell) space() dse.SpaceParams {
	return dse.SpaceParams{CPUFreqsMHz: []float64{c.cpu}, CtrlFreqsMHz: []float64{c.ctrl}}
}

func daemonSpec(seed int64, c cell, tenant string) dsed.JobSpec {
	sp := c.space()
	return dsed.JobSpec{
		Tenant:      tenant,
		Workload:    &dsed.WorkloadSpec{Vertices: paperVertices, EdgeFactor: paperEdgeFactor, Seed: seed, Repeats: paperRoots},
		Space:       &sp,
		FailureRate: dse.PaperFailureRate,
		FailureSeed: failureSeed,
	}
}

// plannedJob is one submission of the closed loop.
type plannedJob struct {
	n    int // job number within the run
	hit  bool
	seed int64
	cell int
}

// jobObs is what a client observed of one job.
type jobObs struct {
	job                       plannedJob
	id                        string
	submitS, queueS, runS     float64
	resultS, latency, sweepS  float64
	events                    int
	records                   []json.RawMessage
	start, submitted, running time.Time
	started, lastProgress     time.Time
	terminal, done            time.Time
}

// daemonHandle is one running daemon and the seam it writes through.
type daemonHandle struct {
	fs   *countingFS
	base string
	stop context.CancelFunc
	errc chan error
}

// daemonWorkers splits the run's workers into concurrent jobs and sweep
// workers per job, so that their product never exceeds workers.
func daemonWorkers(workers int) (jobs, sweep int) {
	jobs = max(1, min(daemonClients, workers))
	return jobs, max(1, workers/jobs)
}

func startDaemon(ctx context.Context, spool string, workers int, tr *tracer) (*daemonHandle, error) {
	jobWorkers, sweepWorkers := daemonWorkers(workers)
	fsys := &countingFS{inner: artifact.OS, tr: tr}
	d, err := dsed.New(dsed.Options{
		Dir: spool,
		FS:  fsys,
		Scheduler: dsed.SchedulerOptions{
			JobWorkers:   jobWorkers,
			SweepWorkers: sweepWorkers,
		},
	})
	if err != nil {
		return nil, fmt.Errorf("dsed.New: %w", err)
	}
	dctx, stop := context.WithCancel(ctx)
	h := &daemonHandle{fs: fsys, stop: stop, errc: make(chan error, 1)}
	go func() { h.errc <- d.Run(dctx) }()
	for d.Addr() == "" {
		select {
		case err := <-h.errc:
			stop()
			return nil, fmt.Errorf("dsed.Run: %w", err)
		case <-time.After(time.Millisecond):
		}
	}
	h.base = "http://" + d.Addr()
	return h, nil
}

// close drains the daemon and waits for Run to return.
func (h *daemonHandle) close() error {
	h.stop()
	return <-h.errc
}

// daemonClient is one closed-loop client. Its transport holds at most one
// connection, so the run never uses more than daemonClients connections.
type daemonClient struct {
	base       string
	tenant     string
	http       *http.Client
	follow     *dsedclient.Client
	reconnects *atomic.Int64
	rejected   *atomic.Int64
}

func newDaemonClient(base string, i int, reconnects, rejected *atomic.Int64) *daemonClient {
	hc := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	return &daemonClient{
		base:       base,
		tenant:     fmt.Sprintf("bench-%d", i),
		http:       hc,
		follow:     dsedclient.New(base, dsedclient.Options{HTTPClient: hc}),
		reconnects: reconnects,
		rejected:   rejected,
	}
}

func (c *daemonClient) close() { c.http.CloseIdleConnections() }

// runJob submits one job, follows its event stream until it ends and
// fetches its sealed result.
func (c *daemonClient) runJob(ctx context.Context, pj plannedJob, spec dsed.JobSpec) (jobObs, error) {
	obs := jobObs{job: pj}
	body, err := json.Marshal(spec)
	if err != nil {
		return obs, err
	}
	obs.start = time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return obs, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.http.Do(req)
	if err != nil {
		return obs, fmt.Errorf("submit: %w", err)
	}
	var st dsed.JobStatus
	decErr := json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable || resp.StatusCode == http.StatusInsufficientStorage:
		c.rejected.Add(1)
		return obs, fmt.Errorf("submission refused: %s", resp.Status)
	case resp.StatusCode != http.StatusAccepted:
		return obs, fmt.Errorf("submit: %s", resp.Status)
	case decErr != nil:
		return obs, fmt.Errorf("submit: decode status: %w", decErr)
	}
	obs.id = st.ID
	obs.submitted = time.Now()

	term, err := c.follow.Follow(ctx, st.ID, dsedclient.FollowOptions{
		OnEvent: func(ev dsedclient.Event) {
			now := time.Now()
			obs.events++
			switch {
			case ev.Type == "state" && ev.State == "running":
				obs.running = now
			case ev.Type == "progress" && ev.Done == 0:
				obs.started = now
			case ev.Type == "progress":
				obs.lastProgress = now
			}
		},
		OnRetry: func(int, error, time.Duration) { c.reconnects.Add(1) },
	})
	if err != nil {
		return obs, fmt.Errorf("follow %s: %w", st.ID, err)
	}
	obs.terminal = time.Now()
	if term.State != "done" {
		return obs, fmt.Errorf("job %s ended %s: %s", st.ID, term.State, term.Error)
	}

	req, err = http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/jobs/"+st.ID+"/result", nil)
	if err != nil {
		return obs, err
	}
	resp, err = c.http.Do(req)
	if err != nil {
		return obs, fmt.Errorf("result: %w", err)
	}
	var res dsed.JobResult
	decErr = json.NewDecoder(resp.Body).Decode(&res)
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if decErr != nil {
		return obs, fmt.Errorf("result %s: %s: %w", st.ID, resp.Status, decErr)
	}
	if resp.StatusCode != http.StatusOK || !res.Sealed {
		return obs, fmt.Errorf("result %s: %s, sealed %v", st.ID, resp.Status, res.Sealed)
	}
	obs.done = time.Now()
	obs.records = res.Records

	obs.submitS = obs.submitted.Sub(obs.start).Seconds()
	if obs.running.IsZero() {
		obs.running = obs.submitted
	}
	if obs.started.IsZero() {
		obs.started = obs.running
	}
	if obs.lastProgress.IsZero() {
		obs.lastProgress = obs.started
	}
	obs.queueS = obs.running.Sub(obs.submitted).Seconds()
	obs.runS = obs.terminal.Sub(obs.running).Seconds()
	obs.sweepS = obs.lastProgress.Sub(obs.started).Seconds()
	obs.resultS = obs.done.Sub(obs.terminal).Seconds()
	obs.latency = obs.done.Sub(obs.start).Seconds()
	return obs, nil
}

// traceJob records a finished job's spans.
func (r *run) traceJob(o jobObs) {
	root := r.tr.add(0, 0, o.id, "dsed.job", o.start, o.done)
	r.tr.add(0, root, o.id, "dsed.submit", o.start, o.submitted)
	r.tr.add(0, root, o.id, "dsed.queue_wait", o.submitted, o.running)
	run := r.tr.add(0, root, o.id, "dsed.run", o.running, o.terminal)
	r.tr.add(0, run, o.id, "dsed.trace_load", o.running, o.started)
	r.tr.add(0, run, o.id, "dse.sweep", o.started, o.lastProgress)
	r.tr.add(0, root, o.id, "dsed.result", o.terminal, o.done)
}

// runDaemonJobs is the daemon-jobs workload. Set-up starts a daemon on a
// fresh spool and runs one warm-up job of the hit workload through it, so
// the trace cache holds that trace before timing; wall_s is the time of one
// batch of daemonClients × jobsPerClient jobs.
func runDaemonJobs(ctx context.Context, r *run) error {
	seed := r.cfg.seed
	cells := spaceCells()
	if err := artifact.OS.MkdirAll(r.cfg.workDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(r.cfg.workDir, "daemon-jobs-")
	if err != nil {
		return fmt.Errorf("spool: %w", err)
	}
	defer os.RemoveAll(dir)

	var reconnects, rejected atomic.Int64
	var h *daemonHandle
	defer func() {
		if h != nil {
			_ = h.close()
		}
	}()
	setupN := 0
	setup, err := timeSetup(func() error {
		if h != nil {
			if err := h.close(); err != nil {
				return fmt.Errorf("set-up: drain: %w", err)
			}
			h = nil
		}
		var err error
		h, err = startDaemon(ctx, filepath.Join(dir, fmt.Sprint(setupN)), r.cfg.workers, r.tr)
		setupN++
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		c := newDaemonClient(h.base, 0, &reconnects, &rejected)
		defer c.close()
		pj := plannedJob{n: -1, hit: true, seed: seed}
		_, err = c.runJob(ctx, pj, daemonSpec(seed, cells[0], c.tenant))
		if err != nil {
			return fmt.Errorf("set-up: warm-up job: %w", err)
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.e2e["setup_s"] = setup
	reconnects.Store(0)
	rejected.Store(0)
	io0 := h.fs.counts()

	clients := make([]*daemonClient, daemonClients)
	for i := range clients {
		clients[i] = newDaemonClient(h.base, i, &reconnects, &rejected)
		defer clients[i].close()
	}
	jpc := r.cfg.jobsPerClient
	var (
		mu   sync.Mutex
		all  []jobObs
		trcd []jobObs
	)
	its := r.loop(ctx, 2, false, func(i int, traced bool) (iteration, error) {
		t0 := time.Now()
		var wg sync.WaitGroup
		var lats []float64
		var errs []error
		points := 0
		for ci, c := range clients {
			wg.Add(1)
			go func(ci int, c *daemonClient) {
				defer wg.Done()
				for j := 0; j < jpc; j++ {
					n := i*daemonClients*jpc + ci*jpc + j
					pj := plannedJob{n: n, hit: j%2 == 0, seed: seed, cell: (n / 2) % len(cells)}
					if !pj.hit {
						pj.seed = seed + 1 + int64(n)
					}
					o, err := c.runJob(ctx, pj, daemonSpec(pj.seed, cells[pj.cell], c.tenant))
					mu.Lock()
					r.op(err)
					if err == nil {
						all = append(all, o)
						lats = append(lats, o.latency)
						points += len(o.records)
						if traced {
							trcd = append(trcd, o)
							r.traceJob(o)
						}
					} else {
						errs = append(errs, err)
					}
					mu.Unlock()
				}
			}(ci, c)
		}
		wg.Wait()
		t1 := time.Now()
		if traced {
			r.tr.add(0, 0, fmt.Sprintf("batch-%d", i), "dsed.batch", t0, t1)
		}
		if len(lats) == 0 {
			return iteration{}, fmt.Errorf("no job of the batch completed: %w", errors.Join(errs...))
		}
		return iteration{wall: t1.Sub(t0).Seconds(), points: points, latencies: lats}, nil
	})
	if len(its) == 0 {
		r.check("passes", false, "no batch completed")
		return nil
	}
	r.summarize(its)
	io1 := h.fs.counts()
	stz, stzErr := statusz(ctx, clients[0].http, h.base)

	// Reference records, untimed: the hit workload's full space swept in
	// process the way the daemon sweeps a job (no footprint sizing).
	space := dse.EnumerateSpace(dse.SpaceParams{})
	hitPT, hitRef, refErr := r.referenceSweep(ctx, seed, space)
	var refLines []json.RawMessage
	if refErr == nil {
		refLines, refErr = dse.CanonicalRecords(hitRef)
	}
	if refErr != nil {
		return fmt.Errorf("reference sweep: %w", refErr)
	}
	if seed == defaultSeed {
		d := canonicalDigest(refLines)
		r.check("pinned-digest", d == pinnedDigests[wlDaemon], "in-process reference %s, pinned %s", d, pinnedDigests[wlDaemon])
	}
	refByCell := linesByCell(refLines, space, cells)

	var failedPts, totalPts, hitChecked, hitBad, missChecked, missBad int
	sealedByCell := map[int][]json.RawMessage{}
	deterministic := true
	var missRefS, missPrepS []float64
	var missEvents int
	for _, o := range all {
		recs, err := dse.DecodeCanonicalRecords(o.records, space)
		if err != nil {
			hitBad++
			continue
		}
		f, _ := failureCounts(recs)
		failedPts += f
		totalPts += len(recs)
		if o.job.hit {
			hitChecked++
			if !equalLines(o.records, refByCell[o.job.cell]) {
				hitBad++
			}
			if prev, ok := sealedByCell[o.job.cell]; ok {
				deterministic = deterministic && equalLines(prev, o.records)
			} else {
				sealedByCell[o.job.cell] = o.records
			}
			continue
		}
		if (o.job.n/2)%verifyEvery != 0 {
			continue
		}
		missChecked++
		lines, sysS, prepS, events, err := r.missReference(ctx, o.job, cells)
		if err != nil || !equalLines(o.records, lines) {
			missBad++
		}
		missRefS = append(missRefS, sysS)
		missPrepS = append(missPrepS, prepS)
		missEvents = events
	}
	r.check("cross-route", hitBad == 0 && missBad == 0 && hitChecked > 0,
		"sealed records equal in-process dse.SweepPrepared: %d/%d hit jobs, %d/%d sampled miss jobs",
		hitChecked-hitBad, hitChecked, missChecked-missBad, missChecked)
	r.check("determinism", deterministic, "every hit job of a cell sealed the same records (%d cells)", len(sealedByCell))
	if totalPts > 0 {
		r.e2e["point_failure_ratio"] = float64(failedPts) / float64(totalPts)
	}
	// Cell order, not map order: the dataset's row order decides the split.
	var union []json.RawMessage
	for c := range cells {
		union = append(union, sealedByCell[c]...)
	}
	unionRecs, err := dse.DecodeCanonicalRecords(union, space)
	if err == nil {
		r.e2e["surrogate_r2_min"], err = surrogateR2(ctx, unionRecs, seed)
	}
	r.check("surrogate", err == nil, "training on the hit jobs' sealed records (%d cells) after timing (err %v)", len(sealedByCell), err)

	if !r.cfg.traced {
		return nil
	}
	jobs := float64(len(all))
	r.layer["dsed.rejected"] = float64(rejected.Load())
	r.layer["dsedclient.reconnects"] = float64(reconnects.Load())
	if jobs > 0 {
		r.layer["artifact.fsyncs_per_job"] = float64(io1.fsyncs-io0.fsyncs) / jobs
		r.layer["artifact.fsync_s_per_job"] = (io1.fsyncS - io0.fsyncS) / jobs
		r.layer["artifact.bytes_written_per_job"] = float64(io1.bytes-io0.bytes) / jobs
		r.layer["artifact.renames_per_job"] = float64(io1.renames-io0.renames) / jobs
	}
	if stzErr == nil {
		if n := stz.Cache.Hits + stz.Cache.Misses; n > 0 {
			r.layer["dsed.trace_cache_hit_ratio"] = float64(stz.Cache.Hits) / float64(n)
		}
		r.layer["memsim.partition_builds"] = float64(stz.Cache.PartitionMisses)
		if n := stz.Cache.PartitionHits + stz.Cache.PartitionMisses; n > 0 {
			r.layer["memsim.partition_hit_ratio"] = float64(stz.Cache.PartitionHits) / float64(n)
		}
		r.layer["guard.downshifts"] = float64(stz.Downshifts)
	}
	ns, err := r.replayProbe(hitPT, 0)
	if err != nil {
		return err
	}
	_, sweepWorkers := daemonWorkers(r.cfg.workers)
	var submit, queue, runS, result, sweep, events []float64
	var work, busy, attempts, failedL float64
	for _, o := range trcd {
		submit = append(submit, o.submitS)
		queue = append(queue, o.queueS)
		runS = append(runS, o.runS)
		result = append(result, o.resultS)
		sweep = append(sweep, o.sweepS)
		events = append(events, float64(o.events))
		if recs, err := dse.DecodeCanonicalRecords(o.records, space); err == nil {
			work += engineWork(recs, ns, hitPT.Len())
			busy += o.sweepS * float64(sweepWorkers)
			f, a := failureCounts(recs)
			failedL += float64(f)
			attempts += float64(a)
		}
	}
	r.layer["dsed.submit_s.p50"] = median(submit)
	r.layer["dsed.queue_wait_s.p50"] = median(queue)
	r.layer["dsed.run_s.p50"] = median(runS)
	r.layer["dsed.result_s.p50"] = median(result)
	r.layer["dsed.journal_events_per_job"] = median(events)
	r.layer["dse.sweep_s"] = median(sweep)
	if busy > 0 {
		r.layer["dse.worker_utilisation"] = work / busy
	}
	if tracedPasses := countTraced(its); tracedPasses > 0 {
		r.layer["dse.attempts"] = attempts / float64(tracedPasses)
		r.layer["dse.points_failed"] = failedL / float64(tracedPasses)
	}
	r.layer["sysim.trace_s"] = median(missRefS)
	r.layer["memsim.prepare_s"] = median(missPrepS)
	r.layer["sysim.events"] = float64(missEvents)
	r.printShares("dsed.job", r.tr.snapshot())
	return nil
}

func countTraced(its []iteration) int {
	n := 0
	for _, it := range its {
		if it.traced {
			n++
		}
	}
	return n
}

// referenceSweep simulates the workload in process and sweeps the points
// the way the daemon does, invariant gate included.
func (r *run) referenceSweep(ctx context.Context, seed int64, points []dse.DesignPoint) (*memsim.PreparedTrace, []dse.RunRecord, error) {
	m, _, err := sysim.PaperWorkloadTraceContext(ctx, sysim.DefaultConfig(), paperVertices, paperEdgeFactor, seed, paperRoots, nil)
	if err != nil {
		return nil, nil, err
	}
	pt, err := memsim.PrepareSource(m.TraceSource())
	if err != nil {
		return nil, nil, err
	}
	recs, err := dse.SweepPreparedContext(ctx, pt, points, dse.SweepOptions{Faults: paperFaults(), Workers: r.cfg.workers})
	if err != nil {
		return nil, nil, err
	}
	if _, err := dse.ApplyInvariantGate(recs, int64(pt.Len())); err != nil {
		return nil, nil, err
	}
	return pt, recs, nil
}

// missReference recomputes one miss job in process and times its sysim
// and memsim.Prepare calls: the calls the daemon makes on a cache miss.
func (r *run) missReference(ctx context.Context, pj plannedJob, cells []cell) (lines []json.RawMessage, sysS, prepS float64, events int, err error) {
	t0 := time.Now()
	m, _, err := sysim.PaperWorkloadTraceContext(ctx, sysim.DefaultConfig(), paperVertices, paperEdgeFactor, pj.seed, paperRoots, nil)
	if err != nil {
		return nil, 0, 0, 0, err
	}
	t1 := time.Now()
	pt, err := memsim.PrepareSource(m.TraceSource())
	if err != nil {
		return nil, 0, 0, 0, err
	}
	t2 := time.Now()
	recs, err := dse.SweepPreparedContext(ctx, pt, dse.EnumerateSpace(cells[pj.cell].space()), dse.SweepOptions{Faults: paperFaults(), Workers: r.cfg.workers})
	if err != nil {
		return nil, 0, 0, 0, err
	}
	if _, err := dse.ApplyInvariantGate(recs, int64(pt.Len())); err != nil {
		return nil, 0, 0, 0, err
	}
	lines, err = dse.CanonicalRecords(recs)
	return lines, t1.Sub(t0).Seconds(), t2.Sub(t1).Seconds(), pt.Len(), err
}

// linesByCell splits canonical lines of a full-space sweep by cell index.
func linesByCell(lines []json.RawMessage, space []dse.DesignPoint, cells []cell) map[int][]json.RawMessage {
	cellOf := map[string]int{}
	for _, p := range space {
		for i, c := range cells {
			if c.cpu == p.CPUFreqMHz && c.ctrl == p.CtrlFreqMHz {
				cellOf[p.ID()] = i
			}
		}
	}
	out := map[int][]json.RawMessage{}
	for _, l := range lines {
		var head struct {
			ID string `json:"id"`
		}
		if json.Unmarshal(l, &head) != nil {
			continue
		}
		out[cellOf[head.ID]] = append(out[cellOf[head.ID]], l)
	}
	for k := range out {
		sort.Slice(out[k], func(i, j int) bool { return bytes.Compare(out[k][i], out[k][j]) < 0 })
	}
	return out
}

func equalLines(a, b []json.RawMessage) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

func statusz(ctx context.Context, hc *http.Client, base string) (dsed.Statusz, error) {
	var st dsed.Statusz
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/statusz", nil)
	if err != nil {
		return st, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	return st, json.NewDecoder(resp.Body).Decode(&st)
}
