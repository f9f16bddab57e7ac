package dsed

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"

	"graphdse/internal/dse"
	"graphdse/internal/guard"
	"graphdse/internal/memsim"
	"graphdse/internal/sysim"
	"graphdse/internal/trace"
)

// errJobCancelled is the cancellation cause distinguishing a client cancel
// from a daemon drain (both cancel the job context).
var errJobCancelled = errors.New("dsed: job cancelled by client")

// SchedulerOptions sizes the worker fleet.
type SchedulerOptions struct {
	// JobWorkers is the number of jobs run concurrently (default 2).
	JobWorkers int
	// SweepWorkers caps each job's sweep parallelism (default 4); a job
	// spec may request fewer but never more.
	SweepWorkers int
	// Logf receives operational log lines (nil discards them).
	Logf func(format string, args ...any)
}

func (o *SchedulerOptions) fill() {
	if o.JobWorkers <= 0 {
		o.JobWorkers = 2
	}
	if o.SweepWorkers <= 0 {
		o.SweepWorkers = 4
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
}

// Scheduler drives the worker fleet: each worker pulls jobs from the queue
// and runs them supervised — per-job contexts and deadlines, journaled
// sweeps, the physical-invariant gate, and governed parallelism.
type Scheduler struct {
	q     *Queue
	cache *TraceCache
	gov   *guard.Governor
	opts  SchedulerOptions

	mu sync.Mutex
	// cancels and early are guarded by mu. early marks running jobs whose
	// cancel arrived after Queue.Next handed them out but before runJob
	// registered their cancel func; runJob applies it on registration.
	cancels map[string]context.CancelCauseFunc
	early   map[string]bool
}

// NewScheduler wires the fleet to its queue, trace cache, and governor
// (gov may be nil for ungoverned runs).
func NewScheduler(q *Queue, cache *TraceCache, gov *guard.Governor, opts SchedulerOptions) *Scheduler {
	opts.fill()
	return &Scheduler{
		q:       q,
		cache:   cache,
		gov:     gov,
		opts:    opts,
		cancels: map[string]context.CancelCauseFunc{},
		early:   map[string]bool{},
	}
}

// Run blocks, running jobs until ctx is cancelled, then waits for the fleet
// to drain. Jobs interrupted by the shutdown are requeued on disk so the
// next daemon resumes them from their journals.
func (s *Scheduler) Run(ctx context.Context) {
	workers := s.opts.JobWorkers
	if s.gov != nil {
		workers = s.gov.Workers("jobs", workers)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				rec, err := s.q.Next(ctx)
				if err != nil {
					return
				}
				s.runJob(ctx, rec)
			}
		}()
	}
	wg.Wait()
}

// Cancel cancels a job: queued jobs are finalized directly, running jobs
// through their context (the sweep observes it at point granularity).
func (s *Scheduler) Cancel(id string) error {
	running, err := s.q.CancelQueued(id)
	if err != nil || !running {
		return err
	}
	s.mu.Lock()
	cancel, ok := s.cancels[id]
	if !ok {
		// Either runJob has not registered the job yet, or it has just
		// finished: mark it, and drop the mark if it has finished.
		s.early[id] = true
	}
	s.mu.Unlock()
	if ok {
		cancel(errJobCancelled)
		return nil
	}
	if rec, err := s.q.Get(id); err == nil && rec.State.Terminal() {
		s.mu.Lock()
		delete(s.early, id)
		s.mu.Unlock()
	}
	return nil
}

// runJob drives one job to a terminal record (or leaves it running on disk
// when the daemon itself is shutting down).
func (s *Scheduler) runJob(parent context.Context, rec JobRecord) {
	id := rec.Spec.ID
	s.opts.Logf("dsed: job %s starting (attempt %d)", id, rec.Attempt)

	jobCtx, cancel := context.WithCancelCause(parent)
	defer cancel(nil)
	s.mu.Lock()
	s.cancels[id] = cancel
	if s.early[id] {
		delete(s.early, id)
		cancel(errJobCancelled)
	}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.cancels, id)
		s.mu.Unlock()
	}()

	runCtx := jobCtx
	if rec.Spec.TimeoutSec > 0 {
		var tcancel context.CancelFunc
		runCtx, tcancel = context.WithTimeout(jobCtx, time.Duration(rec.Spec.TimeoutSec)*time.Second)
		defer tcancel()
	}

	state, errMsg, survivors, quarantined := s.executeJob(runCtx, &rec)
	if state == "" {
		// Daemon shutdown: put the job back (durably) for the next daemon.
		if err := s.q.Requeue(id); err != nil {
			s.opts.Logf("dsed: job %s requeue: %v", id, err)
		}
		s.opts.Logf("dsed: job %s interrupted by drain; journaled for resume", id)
		return
	}
	if err := s.q.Finalize(id, state, errMsg, survivors, quarantined); err != nil {
		s.opts.Logf("dsed: job %s finalize: %v", id, err)
		return
	}
	if errMsg != "" {
		s.opts.Logf("dsed: job %s -> %s: %s", id, state, errMsg)
	} else {
		s.opts.Logf("dsed: job %s -> %s (%d survivors)", id, state, survivors)
	}
}

// executeJob runs the sweep pipeline and classifies the outcome. An empty
// returned state means "daemon is shutting down — do not finalize".
func (s *Scheduler) executeJob(ctx context.Context, rec *JobRecord) (state JobState, errMsg string, survivors, quarantined int) {
	id := rec.Spec.ID
	entry, err := s.loadTrace(ctx, &rec.Spec)
	if err != nil {
		if outcome, msg := interruptOutcome(ctx); outcome != StateRunning {
			return outcome, msg, 0, 0
		}
		return StateFailed, fmt.Sprintf("trace: %v", err), 0, 0
	}
	pt := entry.pt

	var space dse.SpaceParams
	if rec.Spec.Space != nil {
		space = *rec.Spec.Space
	}
	points := dse.EnumerateSpace(space)
	// Resume: every point record the journal holds is final, so only the
	// missing points are swept. On a first run that is all of them.
	have, err := s.journaledRecords(id, points)
	if err != nil {
		return StateFailed, fmt.Sprintf("journal: %v", err), 0, 0
	}
	var faults *dse.FaultInjector
	if rec.Spec.FailureRate > 0 {
		faults = dse.PaperFaults(rec.Spec.FailureRate, rec.Spec.FailureSeed)
	}
	s.q.Progress(id, len(have), len(points), nil)
	journal := s.startPointJournal(id, len(have), len(points))
	defer journal.close()
	// onRecord receives every terminal record, swept or reused, and hands it
	// to the job's journal writer. A record cut short by cancellation is
	// not terminal: it stays out of the journal so resume re-runs the
	// point. Only points this job's injector leaves healthy feed the
	// trace's point records, so injected faults never leak into another
	// job.
	onRecord := func(r dse.RunRecord) {
		if faults.Decide(r.Point, 1) == dse.FaultNone {
			entry.records.store(r)
		}
		if !r.Skipped && !errors.Is(r.Err, context.Canceled) {
			journal.add(r)
		}
		if d := rec.Spec.PointDelayMS; d > 0 {
			time.Sleep(time.Duration(d) * time.Millisecond)
		}
	}

	// Reuse: a point the journal lacks takes the record an earlier sweep
	// on this trace produced, unless this job injects a fault into it.
	records := make([]dse.RunRecord, len(points))
	var missing []dse.DesignPoint
	var slots []int // slots[k] is missing[k]'s index in points
	reused := 0
	for i, p := range points {
		if r, ok := have[p.ID()]; ok {
			records[i] = r
			continue
		}
		if faults.Decide(p, 1) == dse.FaultNone {
			if r, ok := entry.records.lookup(p); ok {
				if outcome, msg := interruptOutcome(ctx); outcome != StateRunning {
					return outcome, msg, 0, 0
				}
				records[i] = r
				onRecord(r)
				reused++
				continue
			}
		}
		missing = append(missing, p)
		slots = append(slots, i)
	}
	s.opts.Logf("dsed: job %s: reused %d of %d points", id, reused, len(points))

	if len(missing) > 0 {
		so := dse.SweepOptions{
			Workers:  s.sweepWorkers(rec.Spec.Workers),
			Timeout:  time.Duration(rec.Spec.PointTimeoutMS) * time.Millisecond,
			Retries:  rec.Spec.Retries,
			Governor: s.gov,
			Faults:   faults,
			OnRecord: onRecord,
		}
		// MinSurvivors stays 0: survivorship is judged on the merged set
		// below, so a subset in which every point failed is not an error.
		swept, sweepErr := dse.SweepPreparedContext(ctx, pt, missing, so)
		if outcome, msg := interruptOutcome(ctx); outcome != StateRunning {
			return outcome, msg, 0, 0
		}
		if sweepErr != nil && !errors.Is(sweepErr, dse.ErrAllFailed) {
			return StateFailed, fmt.Sprintf("sweep: %v", sweepErr), 0, 0
		}
		for k, r := range swept {
			records[slots[k]] = r
		}
	}
	// Every record is journaled before the result is sealed, so a done
	// job's journal holds all of its points.
	journal.close()
	sweepErr := dse.CheckSurvivors(records, rec.Spec.MinSurvivors)
	if errors.Is(sweepErr, dse.ErrAllFailed) {
		return StateFailed, fmt.Sprintf("sweep: %v", sweepErr), 0, 0
	}

	// Physical-invariant gate: quarantine finite-but-impossible results,
	// then re-check survivorship over what remains.
	gate, gateErr := dse.ApplyInvariantGate(records, int64(pt.Len()))
	if gateErr != nil {
		return StateFailed, fmt.Sprintf("invariant gate: %v", gateErr), 0, gate.Quarantined
	}
	if sweepErr != nil {
		// MinSurvivors failed before the gate even ran.
		if gate.Quarantined > 0 {
			return StateQuarantined, sweepErr.Error(), gate.Survivors, gate.Quarantined
		}
		return StateFailed, sweepErr.Error(), gate.Survivors, gate.Quarantined
	}
	if err := dse.CheckSurvivors(records, rec.Spec.MinSurvivors); err != nil {
		// The sweep cleared the bar but the gate pushed it back under:
		// physically impossible output is a quarantine, not a retry.
		if gate.Quarantined > 0 {
			return StateQuarantined, err.Error(), gate.Survivors, gate.Quarantined
		}
		return StateFailed, err.Error(), gate.Survivors, gate.Quarantined
	}

	data, err := buildResult(id, records, gate)
	if err != nil {
		return StateFailed, fmt.Sprintf("result: %v", err), gate.Survivors, gate.Quarantined
	}
	// Result before terminal event: recovery adopts a running job with a
	// sealed result as done, so a crash between the two loses nothing.
	if err := s.sealResult(ctx, id, data); err != nil {
		if outcome, msg := interruptOutcome(ctx); outcome != StateRunning {
			return outcome, msg, gate.Survivors, gate.Quarantined
		}
		return StateFailed, fmt.Sprintf("persist result: %v", err), gate.Survivors, gate.Quarantined
	}
	return StateDone, "", gate.Survivors, gate.Quarantined
}

// maxJournalBatch caps the events one group commit of a job's point
// journal carries, well inside a subscriber's default delivery buffer.
const maxJournalBatch = 16

// pointJournal journals a job's terminal point records in done order on
// its own goroutine. A sweep worker hands a record over and goes on to the
// next point instead of waiting for the journal's fsync, and records that
// arrive while an append is in flight — reused records arrive all at once
// — share the next append and fsync (up to maxJournalBatch events).
type pointJournal struct {
	s         *Scheduler
	id        string
	done      int // points journaled so far; owned by run
	total     int
	recs      chan dse.RunRecord
	finished  chan struct{}
	closeOnce sync.Once
}

// startPointJournal starts job id's journal writer; done points are
// already journaled.
func (s *Scheduler) startPointJournal(id string, done, total int) *pointJournal {
	j := &pointJournal{
		s:     s,
		id:    id,
		done:  done,
		total: total,
		// Each point yields at most one terminal record, so add never
		// blocks.
		recs:     make(chan dse.RunRecord, max(total-done, 1)),
		finished: make(chan struct{}),
	}
	go j.run()
	return j
}

// add queues one terminal record for the journal.
func (j *pointJournal) add(r dse.RunRecord) { j.recs <- r }

// close returns once every added record is journaled and the writer has
// exited. It is idempotent.
func (j *pointJournal) close() {
	j.closeOnce.Do(func() { close(j.recs) })
	<-j.finished
}

func (j *pointJournal) run() {
	defer close(j.finished)
	var evs []Event
	for r := range j.recs {
		evs = j.appendPoint(evs[:0], r)
	batch:
		for len(evs) < maxJournalBatch {
			select {
			case r, ok := <-j.recs:
				if !ok {
					break batch
				}
				evs = j.appendPoint(evs, r)
			default:
				break batch
			}
		}
		j.s.q.journalPoints(j.id, evs)
	}
}

// appendPoint appends one point's events: its failure-log entry when it
// failed, then its progress event carrying the record. An unencodable
// record is journaled without its line, so the point re-runs on resume.
func (j *pointJournal) appendPoint(evs []Event, r dse.RunRecord) []Event {
	if r.Failed {
		ev := Event{
			Type:     EventFailure,
			Point:    r.Point.ID(),
			Class:    r.FaultClass.String(),
			Attempts: r.Attempts,
		}
		if r.Err != nil {
			ev.Error = r.Err.Error()
		}
		evs = append(evs, ev)
	}
	line, _ := dse.EncodeRecord(r)
	j.done++
	return append(evs, Event{Type: EventProgress, Done: j.done, Total: j.total, Record: line})
}

// journaledRecords decodes the point records job id's journal holds, keyed
// by point ID. The frames are CRC-checked, so a record that fails to decode
// is a bug, not damage, and fails the job rather than being re-run.
func (s *Scheduler) journaledRecords(id string, points []dse.DesignPoint) (map[string]dse.RunRecord, error) {
	var lines []json.RawMessage
	for _, ev := range s.q.events.History(id) {
		if ev.Type == EventProgress && len(ev.Record) > 0 {
			lines = append(lines, ev.Record)
		}
	}
	have := make(map[string]dse.RunRecord, len(lines))
	if len(lines) == 0 {
		return have, nil
	}
	recs, err := dse.DecodeCanonicalRecords(lines, points)
	if err != nil {
		return nil, err
	}
	for _, r := range recs {
		have[r.Point.ID()] = r
	}
	return have, nil
}

// sealResult commits the result document, riding out degraded storage: a
// finished sweep's work is never discarded just because the disk is
// momentarily full. Every attempt's outcome feeds the disk governor; while
// the governor reports degraded, the seal parks on AwaitWritable (a drain
// interrupts it, requeueing the job to re-seal under the next daemon).
// Failures the governor does not attribute to the disk get a short bounded
// retry before failing the job.
func (s *Scheduler) sealResult(ctx context.Context, id string, data []byte) error {
	disk := s.q.Disk()
	const maxIsolated = 5
	for attempt := 0; ; attempt++ {
		err := s.q.writeResult(id, data)
		if err == nil {
			return nil
		}
		if disk != nil && !disk.Writable() {
			s.opts.Logf("dsed: job %s result seal blocked on degraded storage (%v); waiting", id, err)
			if !disk.AwaitWritable(ctx) {
				return err
			}
			continue
		}
		if attempt >= maxIsolated-1 {
			return err
		}
		select {
		case <-ctx.Done():
			return err
		case <-time.After(100 * time.Millisecond):
		}
	}
}

// interruptOutcome classifies a context interruption: daemon drain (empty
// state — do not finalize), client cancel, or job deadline. StateRunning
// means "not interrupted".
func interruptOutcome(ctx context.Context) (JobState, string) {
	if ctx.Err() == nil {
		return StateRunning, ""
	}
	cause := context.Cause(ctx)
	switch {
	case errors.Is(cause, errJobCancelled):
		return StateCancelled, "cancelled by client"
	case errors.Is(ctx.Err(), context.DeadlineExceeded):
		return StateFailed, fmt.Sprintf("job deadline exceeded: %v", cause)
	default:
		// The parent (daemon) context ended: shutdown, not a job outcome.
		return "", ""
	}
}

// sweepWorkers resolves a job's effective sweep parallelism.
func (s *Scheduler) sweepWorkers(requested int) int {
	w := s.opts.SweepWorkers
	if requested > 0 && requested < w {
		w = requested
	}
	return w
}

// loadTrace resolves the job's trace through the content-addressed cache;
// the entry carries the trace and its point records.
func (s *Scheduler) loadTrace(ctx context.Context, spec *JobSpec) (*cacheEntry, error) {
	if w := spec.Workload; w != nil {
		key := fmt.Sprintf("workload:v%d:ef%d:s%d:r%d", w.Vertices, w.EdgeFactor, w.Seed, w.Repeats)
		return s.cache.get(ctx, key, func(ctx context.Context) (*memsim.PreparedTrace, error) {
			return synthesizeWorkload(ctx, w)
		})
	}
	key, err := fileKey(spec.TracePath)
	if err != nil {
		return nil, err
	}
	path := spec.TracePath
	return s.cache.get(ctx, key, func(ctx context.Context) (*memsim.PreparedTrace, error) {
		return decodeTraceFile(ctx, path)
	})
}

// synthesizeWorkload runs the deterministic paper workload to produce the
// job's trace.
func synthesizeWorkload(ctx context.Context, w *WorkloadSpec) (*memsim.PreparedTrace, error) {
	vertices, edgeFactor, repeats := w.Vertices, w.EdgeFactor, w.Repeats
	if vertices == 0 {
		vertices = 1024
	}
	if edgeFactor == 0 {
		edgeFactor = 16
	}
	if repeats == 0 {
		repeats = 1
	}
	machine, _, err := sysim.PaperWorkloadTraceContext(ctx, sysim.DefaultConfig(),
		vertices, edgeFactor, w.Seed, repeats, nil)
	if err != nil {
		return nil, err
	}
	return memsim.PrepareSource(machine.TraceSource())
}

// fileKey content-addresses a trace file: its SHA-256. Hashing reads the
// whole file but costs far less than decoding it, and it is what makes two
// jobs pointing at byte-identical traces share one decode.
func fileKey(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", fmt.Errorf("dsed: trace file: %w", err)
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", fmt.Errorf("dsed: hash trace file: %w", err)
	}
	return "file:" + hex.EncodeToString(h.Sum(nil)), nil
}

// decodeTraceFile streams a binary trace artifact into prepared form.
func decodeTraceFile(ctx context.Context, path string) (*memsim.PreparedTrace, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return memsim.PrepareSource(trace.NewBinarySource(f))
}

// JobResult is the durable final report of one completed job. Everything in
// it is deterministic for a given spec — Records are the canonical sorted
// record encodings, Pareto the sorted non-dominated point IDs — which
// is what makes a resumed job's report byte-identical to an uninterrupted
// one.
type JobResult struct {
	ID          string            `json:"id"`
	Total       int               `json:"total"`
	Survivors   int               `json:"survivors"`
	Quarantined int               `json:"quarantined"`
	Pareto      []string          `json:"pareto,omitempty"`
	Records     []json.RawMessage `json:"records"`
	// Sealed marks the report complete; recovery only adopts sealed
	// results.
	Sealed bool `json:"sealed"`
}

// buildResult renders the canonical report bytes.
func buildResult(id string, records []dse.RunRecord, gate *dse.GateReport) ([]byte, error) {
	canon, err := dse.CanonicalRecords(records)
	if err != nil {
		return nil, err
	}
	res := JobResult{
		ID:          id,
		Total:       len(records),
		Survivors:   gate.Survivors,
		Quarantined: gate.Quarantined,
		Records:     canon,
		Sealed:      true,
	}
	if front, perr := dse.ParetoFront(records, dse.DefaultObjectives()); perr == nil {
		ids := make([]string, 0, len(front))
		for _, r := range front {
			ids = append(ids, r.Point.ID())
		}
		sort.Strings(ids)
		res.Pareto = ids
	}
	out, err := json.Marshal(&res)
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}
