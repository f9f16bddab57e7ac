package dsed

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"graphdse/internal/artifact"
)

// Admission-control sentinels. The HTTP layer maps them onto status codes
// (429 + Retry-After for saturation, 503 for draining); everything else
// treats them through errors.Is.
var (
	// ErrSaturated reports a full queue: the daemon sheds load instead of
	// accepting unbounded work.
	ErrSaturated = errors.New("dsed: job queue saturated")
	// ErrTenantBusy reports a tenant at its in-flight cap.
	ErrTenantBusy = errors.New("dsed: tenant at in-flight cap")
	// ErrDraining reports a daemon that has stopped intake for shutdown.
	ErrDraining = errors.New("dsed: daemon draining")
	// ErrSpecConflict reports a re-submission whose ID exists with a
	// different spec — an idempotency-key collision, never silently merged.
	ErrSpecConflict = errors.New("dsed: job id exists with a different spec")
	// ErrUnknownJob reports an ID the spool has never seen.
	ErrUnknownJob = errors.New("dsed: unknown job")
	// ErrNotCancellable reports a cancel of an already-terminal job.
	ErrNotCancellable = errors.New("dsed: job already terminal")
)

// eventsDir holds the spool's one store: each job's event journal, its
// only durable record.
const eventsDir = "events"

// RecoveryReport accounts for what a queue recovery found, so an operator
// can see exactly what a crash cost (nothing, if the invariants hold).
type RecoveryReport struct {
	// Terminal counts jobs already in an end state.
	Terminal int
	// Requeued counts queued jobs put back on the run queue.
	Requeued int
	// Resumed counts jobs found running (the daemon died under them) and
	// re-enqueued to resume from the points their journal holds; one whose
	// journal holds every point sweeps nothing and commits.
	Resumed int
	// Corrupt counts journals whose first frame failed its checksum; the
	// damaged files are set aside with a .corrupt suffix and the jobs
	// reported lost rather than silently re-animated.
	Corrupt int
	// CorruptFiles names the set-aside journals.
	CorruptFiles []string
	// CorruptRetained/CorruptEvicted account for the quarantine cap: the
	// newest MaxCorrupt set-aside files are kept for forensics, anything
	// older is evicted so a flapping disk cannot grow the quarantine
	// without bound.
	CorruptRetained int
	CorruptEvicted  int
}

// String renders the report as one log line.
func (r *RecoveryReport) String() string {
	return fmt.Sprintf("recovery: %d terminal, %d requeued, %d resumed from journal, %d corrupt",
		r.Terminal, r.Requeued, r.Resumed, r.Corrupt)
}

// QueueOptions bounds the queue. Zero values disable nothing by accident:
// fill() applies conservative defaults.
type QueueOptions struct {
	// MaxQueued bounds jobs waiting to run (default 64).
	MaxQueued int
	// TenantCap bounds one tenant's queued+running jobs (default 8).
	TenantCap int
	// EventBuffer bounds each event subscriber's delivery buffer; a consumer
	// that falls a full buffer behind is evicted rather than ever blocking
	// the queue or scheduler (default 64).
	EventBuffer int
	// MaxCorrupt caps the .corrupt quarantine in the events directory:
	// beyond this many set-aside journals, the oldest are evicted at
	// recovery (default 16).
	MaxCorrupt int
	// FS is the filesystem every spool read and write goes through (nil =
	// the real filesystem). Chaos tests inject ENOSPC/EIO/torn renames here.
	FS artifact.FS
}

func (o *QueueOptions) fill() {
	if o.MaxQueued <= 0 {
		o.MaxQueued = 64
	}
	if o.TenantCap <= 0 {
		o.TenantCap = 8
	}
	if o.MaxCorrupt <= 0 {
		o.MaxCorrupt = 16
	}
	if o.FS == nil {
		o.FS = artifact.OS
	}
}

// Queue is the durable job queue: an in-memory index over a spool of
// per-job event journals. Every state transition is journaled before it
// becomes visible, so the in-memory view can always be rebuilt from disk —
// Open does exactly that, by folding each journal.
type Queue struct {
	dir  string
	opts QueueOptions
	fs   artifact.FS

	// disk, when attached, gates admission on spool health and observes
	// every journal append (see DiskGovernor). Attach before serving.
	disk *DiskGovernor

	// events is the durable record of every job (see EventLog). Emissions
	// under q.mu keep journal order identical to state-transition order;
	// EventLog never calls back into the queue, so the lock order is safe.
	events *EventLog
	// results caches done jobs' reports (see Result).
	results resultCache

	mu sync.Mutex
	// jobs is guarded by mu.
	jobs map[string]*JobRecord
	// pending is the FIFO of queued job IDs; guarded by mu.
	pending []string
	// draining is guarded by mu.
	draining bool
	// seq is guarded by mu.
	seq uint64
	// notify is closed+replaced when pending grows; guarded by mu.
	notify chan struct{}
	// recovery is guarded by mu.
	recovery *RecoveryReport
}

// OpenQueue opens (creating if needed) the spool at dir and recovers its
// state: terminal jobs are indexed, queued jobs re-enter the run queue in
// submission order, and jobs left running by a crash are re-enqueued to
// resume from their journal.
func OpenQueue(dir string, opts QueueOptions) (*Queue, error) {
	opts.fill()
	// Retired layouts are refused, not migrated. A spool from before
	// journals carried their jobs' specs keeps its job records in jobs/:
	// its journals cannot be folded, and recovering them would quarantine
	// — and past -max-corrupt, delete — every one. A spool from before
	// results were derived from journals keeps them in results/: its done
	// events lack the trace event count a result is re-derived from.
	for _, retired := range []string{"jobs", "results"} {
		if _, err := opts.FS.Stat(filepath.Join(dir, retired)); err == nil {
			return nil, fmt.Errorf("dsed: spool %s has the retired %s/ layout; drain it with the daemon that wrote it or use a new -dir", dir, retired)
		}
	}
	if err := opts.FS.MkdirAll(filepath.Join(dir, eventsDir), 0o755); err != nil {
		return nil, fmt.Errorf("dsed: spool: %w", err)
	}
	q := &Queue{
		dir:    dir,
		opts:   opts,
		fs:     opts.FS,
		events: NewEventLogFS(opts.FS, filepath.Join(dir, eventsDir), opts.EventBuffer),
		jobs:   map[string]*JobRecord{},
		notify: make(chan struct{}),
	}
	if err := q.recover(); err != nil {
		return nil, err
	}
	return q, nil
}

// Events returns the queue's durable event log.
func (q *Queue) Events() *EventLog { return q.events }

// FS returns the filesystem the spool persists through.
func (q *Queue) FS() artifact.FS { return q.fs }

// AttachDisk wires the disk governor into the queue's persistence paths:
// admission is gated on spool health and every journal append reports its
// outcome. Attach before serving.
func (q *Queue) AttachDisk(g *DiskGovernor) {
	q.disk = g
	if g != nil {
		q.events.SetWriteObserver(g.ObserveWrite)
	}
}

// Disk returns the attached governor (nil when none).
func (q *Queue) Disk() *DiskGovernor { return q.disk }

// Close releases the event log's journal handles. The queue itself holds no
// other open files.
func (q *Queue) Close() { q.events.Close() }

// Dir returns the spool root.
func (q *Queue) Dir() string { return q.dir }

// journalPath names a job's one spool file. IDs are validated at
// admission (safeID), so they cannot traverse outside the spool.
func (q *Queue) journalPath(id string) string { return q.events.path(id) }

// foldJournal rebuilds a job's record from its journal: the first event
// must be the queued state carrying the spec, and every later state and
// progress event updates the record in order. It returns nil when the
// journal does not open with a readable submission.
func foldJournal(id string, evs []Event) *JobRecord {
	if len(evs) == 0 || evs[0].Type != EventState || evs[0].State != StateQueued ||
		evs[0].Spec == nil || evs[0].Spec.ID != id {
		return nil
	}
	digest, err := evs[0].Spec.Digest()
	if err != nil {
		return nil
	}
	rec := &JobRecord{Spec: *evs[0].Spec, SpecDigest: digest, SubmitSeq: evs[0].SubmitSeq}
	for i := range evs {
		switch ev := &evs[i]; ev.Type {
		case EventState:
			rec.State, rec.Attempt, rec.Error = ev.State, ev.Attempt, ev.Error
			rec.Survivors, rec.Quarantined, rec.TraceEvents = ev.Survivors, ev.Quarantined, ev.TraceEvents
		case EventProgress:
			rec.Done, rec.Total = ev.Done, ev.Total
		}
	}
	return rec
}

// recover rebuilds the in-memory index by folding every job's journal. It
// runs inside OpenQueue before the queue is shared, but takes q.mu anyway:
// the guarded fields it populates are locked on every other path, and a
// startup-only exemption is exactly the kind of convention that rots.
func (q *Queue) recover() error {
	q.mu.Lock()
	defer q.mu.Unlock()
	rep := &RecoveryReport{}
	dir := filepath.Join(q.dir, eventsDir)
	entries, err := q.fs.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("dsed: recover: %w", err)
	}
	var requeue []*JobRecord
	for _, e := range entries {
		id := jobOfFile(e.Name(), ".jsonl")
		if e.IsDir() || id == "" {
			continue
		}
		path := filepath.Join(dir, e.Name())
		data, rerr := q.fs.ReadFile(path)
		if rerr != nil {
			return fmt.Errorf("dsed: recover: %w", rerr)
		}
		evs, _ := scanJournalBytes(data)
		rec := foldJournal(id, evs)
		if rec == nil {
			if !bytes.Contains(data, []byte("\n")) {
				// No complete first frame: the submission crashed before its
				// queued event was durable, so it was never acknowledged.
				_ = q.fs.Remove(path)
				continue
			}
			// A complete first frame that fails its checksum is rot while
			// the daemon was down. The journal is set aside, not deleted:
			// the operator decides.
			rep.Corrupt++
			aside := path + ".corrupt"
			if mvErr := q.fs.Rename(path, aside); mvErr == nil {
				rep.CorruptFiles = append(rep.CorruptFiles, aside)
			}
			continue
		}
		if rec.SubmitSeq >= q.seq {
			q.seq = rec.SubmitSeq + 1
		}
		switch {
		case rec.State.Terminal():
			rep.Terminal++
		case rec.State == StateRunning:
			// The daemon died mid-job: resume from the points the journal
			// holds. The done event is the commit point, so a job that
			// swept every point but did not commit sweeps nothing now.
			rec.State = StateQueued
			if eerr := q.events.Emit(id, Event{Type: EventState, State: StateQueued, Attempt: rec.Attempt}); eerr != nil {
				return fmt.Errorf("dsed: recover requeue %s: %w", id, eerr)
			}
			requeue = append(requeue, rec)
			rep.Resumed++
		default: // queued
			requeue = append(requeue, rec)
			rep.Requeued++
		}
		q.jobs[id] = rec
	}
	// CorruptFiles feeds the canonical /statusz payload: sort it so the
	// report's bytes never depend on the FS seam's ReadDir ordering
	// (os.ReadDir sorts, but injected test filesystems need not).
	sort.Strings(rep.CorruptFiles)
	rep.CorruptRetained, rep.CorruptEvicted = q.capCorrupt()
	sort.Slice(requeue, func(i, j int) bool { return requeue[i].SubmitSeq < requeue[j].SubmitSeq })
	for _, rec := range requeue {
		q.pending = append(q.pending, rec.Spec.ID)
	}
	q.recovery = rep
	return nil
}

// capCorrupt bounds the .corrupt quarantine to opts.MaxCorrupt files,
// evicting the oldest (by modification time) beyond the cap. Quarantine
// exists for forensics; a disk that rots records on every restart must not
// be able to grow it without bound.
func (q *Queue) capCorrupt() (retained, evicted int) {
	dir := filepath.Join(q.dir, eventsDir)
	entries, err := q.fs.ReadDir(dir)
	if err != nil {
		return 0, 0
	}
	type aged struct {
		name string
		mod  time.Time
	}
	var corrupt []aged
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".corrupt") {
			continue
		}
		info, ierr := e.Info()
		if ierr != nil {
			continue
		}
		corrupt = append(corrupt, aged{e.Name(), info.ModTime()})
	}
	sort.Slice(corrupt, func(i, j int) bool { return corrupt[i].mod.Before(corrupt[j].mod) })
	for len(corrupt) > q.opts.MaxCorrupt {
		if rerr := q.fs.Remove(filepath.Join(dir, corrupt[0].name)); rerr == nil {
			evicted++
		}
		corrupt = corrupt[1:]
	}
	return len(corrupt), evicted
}

// emit journals one event, tolerating journal failures: a broken event
// stream degrades observability, never the job.
func (q *Queue) emit(id string, ev Event) { _ = q.events.Emit(id, ev) }

// Recovery returns the report of the Open-time recovery pass.
func (q *Queue) Recovery() *RecoveryReport {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.recovery
}

// SetDraining flips intake: once draining, Submit refuses with ErrDraining.
func (q *Queue) SetDraining(on bool) {
	q.mu.Lock()
	q.draining = on
	q.mu.Unlock()
}

// newID mints a random job ID.
func newID() (string, error) {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", err
	}
	return "job-" + hex.EncodeToString(b[:]), nil
}

// safeID constrains client-supplied IDs to a filename-safe alphabet so a
// job ID can never escape the spool directory.
func safeID(id string) bool {
	if id == "" || len(id) > 128 {
		return false
	}
	for _, r := range id {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
		default:
			return false
		}
	}
	return !strings.HasPrefix(id, ".")
}

// Submit admits one job: validates the spec, applies admission control
// (queue depth, tenant cap, draining), journals the job's first event, and
// only then makes it runnable. existing is true when the same (ID, spec)
// was already known — the idempotent path.
func (q *Queue) Submit(spec JobSpec) (rec JobRecord, existing bool, err error) {
	if err := spec.Validate(); err != nil {
		return JobRecord{}, false, err
	}
	if spec.ID == "" {
		id, iderr := newID()
		if iderr != nil {
			return JobRecord{}, false, fmt.Errorf("dsed: mint job id: %w", iderr)
		}
		spec.ID = id
	}
	if !safeID(spec.ID) {
		return JobRecord{}, false, fmt.Errorf("%w: id %q (want [A-Za-z0-9._-], len<=128)", ErrBadSpec, spec.ID)
	}
	digest, err := spec.Digest()
	if err != nil {
		return JobRecord{}, false, err
	}
	rec, existing, err = q.admit(spec, digest)
	if err == nil && !existing {
		// The new journal's name must survive a power cut too before the
		// client is acknowledged. The directory fsync runs after q.mu is
		// released — no queue operation waits on it — so another reader
		// may see the job a moment before its name is durable; a crash in
		// that window loses only a job nobody was promised.
		_ = q.fs.SyncDir(filepath.Join(q.dir, eventsDir))
	}
	return rec, existing, err
}

// admit is Submit's critical section: admission control, the journal's
// first event, and indexing, all under one q.mu hold — the janitor's
// orphan test takes the same lock, so it never sees a journal whose job is
// not yet indexed.
func (q *Queue) admit(spec JobSpec, digest uint32) (JobRecord, bool, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if prior, ok := q.jobs[spec.ID]; ok {
		if prior.SpecDigest == digest {
			return *prior, true, nil
		}
		return JobRecord{}, false, fmt.Errorf("%w: %s", ErrSpecConflict, spec.ID)
	}
	if q.draining {
		return JobRecord{}, false, ErrDraining
	}
	if q.disk != nil {
		// Spool health gates admission after idempotent re-submission (a
		// known job's journal is already durable — re-reporting it needs no
		// writes) but before capacity checks, so a degraded daemon sheds
		// load with the storage-specific status instead of a generic 429.
		if derr := q.disk.Admit(); derr != nil {
			return JobRecord{}, false, derr
		}
	}
	if len(q.pending) >= q.opts.MaxQueued {
		return JobRecord{}, false, fmt.Errorf("%w: %d jobs queued (max %d)", ErrSaturated, len(q.pending), q.opts.MaxQueued)
	}
	if n := q.inFlightLocked(spec.tenant()); n >= q.opts.TenantCap {
		return JobRecord{}, false, fmt.Errorf("%w: tenant %q has %d in flight (cap %d)", ErrTenantBusy, spec.tenant(), n, q.opts.TenantCap)
	}

	newRec := &JobRecord{
		Spec:       spec,
		State:      StateQueued,
		SpecDigest: digest,
		SubmitSeq:  q.seq,
	}
	q.seq++
	// Durability before visibility: the queued event, carrying the spec,
	// reaches disk before the job can run or be reported. A crash right
	// here leaves a journal that recovery re-enqueues — the job is never
	// lost. A failed append leaves no journal behind, so a job the client
	// was told failed never resurfaces.
	if err := q.events.Emit(spec.ID, Event{Type: EventState, State: StateQueued, Spec: &spec, SubmitSeq: newRec.SubmitSeq}); err != nil {
		q.events.DropStream(spec.ID)
		_ = q.fs.Remove(q.journalPath(spec.ID))
		return JobRecord{}, false, fmt.Errorf("dsed: persist job %s: %w", spec.ID, err)
	}
	q.jobs[spec.ID] = newRec
	q.pending = append(q.pending, spec.ID)
	close(q.notify)
	q.notify = make(chan struct{})
	return *newRec, false, nil
}

// inFlightLocked counts a tenant's queued+running jobs. Caller holds q.mu.
func (q *Queue) inFlightLocked(tenant string) int {
	n := 0
	for _, rec := range q.jobs {
		if rec.Spec.tenant() == tenant && !rec.State.Terminal() {
			n++
		}
	}
	return n
}

// Next blocks until a queued job is available (or ctx ends), transitions it
// to running, persists the transition, and returns a copy.
func (q *Queue) Next(ctx context.Context) (JobRecord, error) {
	for {
		q.mu.Lock()
		if len(q.pending) > 0 {
			id := q.pending[0]
			q.pending = q.pending[1:]
			rec := q.jobs[id]
			rec.State = StateRunning
			rec.Attempt++
			// Best-effort: if this append fails the job still runs — a
			// crash would recover it as queued and resume from its
			// journal, costing duplicate scheduling, never duplicate
			// completed points.
			q.emit(id, Event{Type: EventState, State: StateRunning, Attempt: rec.Attempt})
			out := *rec
			q.mu.Unlock()
			return out, nil
		}
		wake := q.notify
		q.mu.Unlock()
		select {
		case <-ctx.Done():
			return JobRecord{}, ctx.Err()
		case <-wake:
		}
	}
}

// Progress updates a running job's counters and journals them. It carries
// no point record, so the append is best-effort.
func (q *Queue) Progress(id string, done, total int) {
	_ = q.journalPoints(id, []Event{{Type: EventProgress, Done: done, Total: total}})
}

// journalPoints journals a run of point events — progress events in done
// order, each carrying its point's canonical record, and each failed
// point's failure-log entry just before its progress event — in one group
// commit. The job's counters take the last progress event's. Progress
// events are journaled only while the job is running. A failed append
// leaves none of the run in the journal, so the caller may retry it.
func (q *Queue) journalPoints(id string, evs []Event) error {
	q.mu.Lock()
	rec, ok := q.jobs[id]
	running := ok && rec.State == StateRunning
	if running {
		for i := len(evs) - 1; i >= 0; i-- {
			if evs[i].Type == EventProgress {
				rec.Done, rec.Total = evs[i].Done, evs[i].Total
				break
			}
		}
	}
	q.mu.Unlock()
	if !running {
		evs = slices.DeleteFunc(evs, func(ev Event) bool { return ev.Type == EventProgress })
	}
	// Emitted outside q.mu: progress is the hot path, and its journal fsync
	// must not serialize queue operations. Ordering versus the terminal
	// transition is safe because Finalize runs strictly after the sweep —
	// and therefore after every point is journaled — completes.
	return q.events.EmitBatch(id, evs)
}

// Verdict is a job's terminal outcome: what its terminal state event
// journals.
type Verdict struct {
	State       JobState
	Error       string
	Survivors   int
	Quarantined int
	// TraceEvents is the replayed trace's event count; set for StateDone
	// (see Event.TraceEvents).
	TraceEvents int64
}

// Finalize journals a job's terminal state event and only then applies it,
// so a failed append leaves the job as its journal has it: not terminal.
// For StateDone the event is the commit point — every point record must
// already be journaled — and result, the report the scheduler rendered
// (nil when none), is cached for Result.
func (q *Queue) Finalize(id string, v Verdict, result []byte) error {
	if !v.State.Terminal() {
		return fmt.Errorf("dsed: finalize %s to non-terminal state %q", id, v.State)
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	rec, ok := q.jobs[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownJob, id)
	}
	if err := q.events.Emit(id, Event{
		Type:        EventState,
		State:       v.State,
		Attempt:     rec.Attempt,
		Error:       v.Error,
		Survivors:   v.Survivors,
		Quarantined: v.Quarantined,
		TraceEvents: v.TraceEvents,
	}); err != nil {
		return fmt.Errorf("dsed: persist finalize %s: %w", id, err)
	}
	rec.State, rec.Error = v.State, v.Error
	rec.Survivors, rec.Quarantined, rec.TraceEvents = v.Survivors, v.Quarantined, v.TraceEvents
	if v.State == StateDone && result != nil {
		q.results.put(id, result)
	}
	return nil
}

// Requeue returns a running job to the queued state without counting the
// attempt against it — the drain path for jobs interrupted by shutdown, so
// the next daemon resumes them from their journal. Like Finalize, it
// journals the transition before applying it.
func (q *Queue) Requeue(id string) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	rec, ok := q.jobs[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownJob, id)
	}
	if rec.State != StateRunning {
		return nil
	}
	if err := q.events.Emit(id, Event{Type: EventState, State: StateQueued, Attempt: rec.Attempt}); err != nil {
		return fmt.Errorf("dsed: persist requeue %s: %w", id, err)
	}
	rec.State = StateQueued
	q.pending = append(q.pending, id)
	close(q.notify)
	q.notify = make(chan struct{})
	return nil
}

// CancelQueued cancels a job that has not started; running jobs are
// cancelled through the scheduler (which owns their contexts). It reports
// whether the job was queued (and is now cancelled), running (caller must
// cancel the context), or terminal (error). The cancel is journaled before
// it is applied, so a failed append leaves the job queued.
func (q *Queue) CancelQueued(id string) (wasRunning bool, err error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	rec, ok := q.jobs[id]
	if !ok {
		return false, fmt.Errorf("%w: %s", ErrUnknownJob, id)
	}
	switch rec.State {
	case StateRunning:
		return true, nil
	case StateQueued:
		if err := q.events.Emit(id, Event{Type: EventState, State: StateCancelled, Attempt: rec.Attempt}); err != nil {
			return false, fmt.Errorf("dsed: persist cancel %s: %w", id, err)
		}
		q.pending = slices.DeleteFunc(q.pending, func(pid string) bool { return pid == id })
		rec.State = StateCancelled
		return false, nil
	default:
		return false, fmt.Errorf("%w: %s is %s", ErrNotCancellable, id, rec.State)
	}
}

// Get returns a copy of one job record.
func (q *Queue) Get(id string) (JobRecord, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	rec, ok := q.jobs[id]
	if !ok {
		return JobRecord{}, fmt.Errorf("%w: %s", ErrUnknownJob, id)
	}
	return *rec, nil
}

// List returns copies of every job record, ordered by submission.
func (q *Queue) List() []JobRecord {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]JobRecord, 0, len(q.jobs))
	for _, rec := range q.jobs {
		out = append(out, *rec)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SubmitSeq < out[j].SubmitSeq })
	return out
}

// ErrNotTerminal reports a GC attempt on a job that is still live.
var ErrNotTerminal = errors.New("dsed: job not terminal")

// JobBytes is the on-disk footprint of one job: its journal.
func (q *Queue) JobBytes(id string) int64 {
	if info, err := q.fs.Stat(q.journalPath(id)); err == nil {
		return info.Size()
	}
	return 0
}

// GCJob removes a terminal job from the spool and the index: its journal,
// its in-memory stream (no handle keeps a deleted file alive) and its
// cached report. Live jobs are refused. Returns the bytes freed.
func (q *Queue) GCJob(id string) (int64, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	rec, ok := q.jobs[id]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrUnknownJob, id)
	}
	if !rec.State.Terminal() {
		return 0, fmt.Errorf("%w: %s is %s", ErrNotTerminal, id, rec.State)
	}
	freed := q.JobBytes(id)
	q.events.DropStream(id)
	if err := q.fs.Remove(q.journalPath(id)); err != nil {
		return 0, fmt.Errorf("dsed: gc %s: %w", id, err)
	}
	delete(q.jobs, id)
	q.results.drop(id)
	return freed, nil
}

// Known reports whether the queue currently indexes the job.
func (q *Queue) Known(id string) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	_, ok := q.jobs[id]
	return ok
}

// removeOrphan deletes path, a spool file of job, unless the queue indexes
// job — the janitor's orphan test. Check and removal share one q.mu
// section, as Submit's journal creation and indexing do, so a racing
// submission can never lose its journal. Reports whether path was removed.
func (q *Queue) removeOrphan(job, path string) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if _, ok := q.jobs[job]; ok {
		return false
	}
	return q.fs.Remove(path) == nil
}

// Depth returns the current queued and running counts.
func (q *Queue) Depth() (queued, running int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for _, rec := range q.jobs {
		switch rec.State {
		case StateQueued:
			queued++
		case StateRunning:
			running++
		}
	}
	return queued, running
}
