package dsed

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"path/filepath"
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

// Spool layout under the queue directory: each job's event journal (its
// only durable record) and its sealed result.
const (
	resultsDir = "results"
	eventsDir  = "events"
)

// RecoveryReport accounts for what a queue recovery found, so an operator
// can see exactly what a crash cost (nothing, if the invariants hold).
type RecoveryReport struct {
	// Terminal counts jobs already in an end state.
	Terminal int
	// Requeued counts queued jobs put back on the run queue.
	Requeued int
	// Resumed counts jobs found running (the daemon died under them) and
	// re-enqueued to resume from the points their journal holds.
	Resumed int
	// Adopted counts jobs found running whose complete result file already
	// existed: the crash landed between result seal and terminal event,
	// and recovery finalizes them as done without re-running anything.
	Adopted int
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
	return fmt.Sprintf("recovery: %d terminal, %d requeued, %d resumed from journal, %d adopted from result, %d corrupt",
		r.Terminal, r.Requeued, r.Resumed, r.Adopted, r.Corrupt)
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
// submission order, and jobs left running by a crash are either adopted (a
// complete result exists) or re-enqueued to resume from their journal.
func OpenQueue(dir string, opts QueueOptions) (*Queue, error) {
	opts.fill()
	// A spool from before journals carried their jobs' specs keeps its job
	// records in jobs/. Its journals cannot be folded, and recovering them
	// would quarantine — and past -max-corrupt, delete — every one.
	if _, err := opts.FS.Stat(filepath.Join(dir, "jobs")); err == nil {
		return nil, fmt.Errorf("dsed: spool %s has the retired jobs/ layout; drain it with the daemon that wrote it or use a new -dir", dir)
	}
	for _, sub := range []string{resultsDir, eventsDir} {
		if err := opts.FS.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("dsed: spool: %w", err)
		}
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

// journalPath/resultPath name a job's two spool files. IDs are validated
// at admission (safeID), so they cannot traverse outside the spool.
func (q *Queue) journalPath(id string) string { return q.events.path(id) }
func (q *Queue) resultPath(id string) string  { return filepath.Join(q.dir, resultsDir, id+".json") }

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
			rec.Survivors, rec.Quarantined = ev.Survivors, ev.Quarantined
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
			// The daemon died mid-job. If its result is already sealed, the
			// crash landed between the seal and the terminal event: adopt
			// it, journaling the seal only if that append was lost too.
			// Otherwise resume from the points the journal holds.
			if res, ok := q.sealedResult(id); ok {
				sealed := evs[len(evs)-1].Type == EventSeal
				if ferr := q.finalizeLocked(rec, StateDone, "", res.Survivors, res.Quarantined, !sealed); ferr != nil {
					return fmt.Errorf("dsed: recover adopt %s: %w", id, ferr)
				}
				rep.Adopted++
			} else {
				rec.State = StateQueued
				if eerr := q.events.Emit(id, Event{Type: EventState, State: StateQueued, Attempt: rec.Attempt}); eerr != nil {
					return fmt.Errorf("dsed: recover requeue %s: %w", id, eerr)
				}
				requeue = append(requeue, rec)
				rep.Resumed++
			}
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

// sealedResult returns the job's result document when a structurally-valid
// sealed one exists.
func (q *Queue) sealedResult(id string) (JobResult, bool) {
	var res JobResult
	data, err := q.fs.ReadFile(q.resultPath(id))
	if err != nil || json.Unmarshal(data, &res) != nil {
		return JobResult{}, false
	}
	return res, res.ID == id && res.Sealed
}

// writeResult seals a job's result document (temp + fsync + rename — the
// one spool write that renames), feeding the outcome to the disk governor.
func (q *Queue) writeResult(id string, data []byte) error {
	err := artifact.WriteFileAtomicFS(q.fs, q.resultPath(id), 0o644, func(w io.Writer) error {
		_, werr := w.Write(data)
		return werr
	})
	if q.disk != nil {
		q.disk.ObserveWrite(err)
	}
	return err
}

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

// Progress updates a running job's counters and journals them, together
// with the canonical record of the point that just completed (nil when none
// did). The append is best-effort: a lost record only means that point
// re-runs on resume.
func (q *Queue) Progress(id string, done, total int, record []byte) {
	q.mu.Lock()
	rec, ok := q.jobs[id]
	running := ok && rec.State == StateRunning
	if running {
		rec.Done, rec.Total = done, total
	}
	q.mu.Unlock()
	// Emitted outside q.mu: progress is the hot path, and its journal fsync
	// must not serialize queue operations. Ordering versus the terminal
	// transition is safe because Finalize runs strictly after the sweep —
	// and therefore after every Progress call — completes.
	if running {
		q.emit(id, Event{Type: EventProgress, Done: done, Total: total, Record: record})
	}
}

// Finalize moves a job to a terminal state and journals it. For StateDone
// the caller must have sealed the result file first — recovery depends on
// that ordering.
func (q *Queue) Finalize(id string, state JobState, errMsg string, survivors, quarantined int) error {
	if !state.Terminal() {
		return fmt.Errorf("dsed: finalize %s to non-terminal state %q", id, state)
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	rec, ok := q.jobs[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownJob, id)
	}
	if err := q.finalizeLocked(rec, state, errMsg, survivors, quarantined, state == StateDone); err != nil {
		return fmt.Errorf("dsed: persist finalize %s: %w", id, err)
	}
	return nil
}

// finalizeLocked applies a terminal transition and journals it, preceded
// by a seal event when seal is set: by the time a client sees "done", the
// sealed report the query endpoints serve from is already committed. The
// seal append is best-effort; the terminal append's error is returned.
// Caller holds q.mu.
func (q *Queue) finalizeLocked(rec *JobRecord, state JobState, errMsg string, survivors, quarantined int, seal bool) error {
	rec.State = state
	rec.Error = errMsg
	rec.Survivors = survivors
	rec.Quarantined = quarantined
	if seal {
		q.emit(rec.Spec.ID, Event{Type: EventSeal, Survivors: survivors, Quarantined: quarantined})
	}
	return q.events.Emit(rec.Spec.ID, Event{
		Type:        EventState,
		State:       state,
		Attempt:     rec.Attempt,
		Error:       errMsg,
		Survivors:   survivors,
		Quarantined: quarantined,
	})
}

// Requeue returns a running job to the queued state without counting the
// attempt against it — the drain path for jobs interrupted by shutdown, so
// the next daemon resumes them from their journal.
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
	rec.State = StateQueued
	q.pending = append(q.pending, id)
	close(q.notify)
	q.notify = make(chan struct{})
	if err := q.events.Emit(id, Event{Type: EventState, State: StateQueued, Attempt: rec.Attempt}); err != nil {
		return fmt.Errorf("dsed: persist requeue %s: %w", id, err)
	}
	return nil
}

// CancelQueued cancels a job that has not started; running jobs are
// cancelled through the scheduler (which owns their contexts). It reports
// whether the job was queued (and is now cancelled), running (caller must
// cancel the context), or terminal (error).
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
		for i, pid := range q.pending {
			if pid == id {
				q.pending = append(q.pending[:i], q.pending[i+1:]...)
				break
			}
		}
		rec.State = StateCancelled
		if err := q.events.Emit(id, Event{Type: EventState, State: StateCancelled, Attempt: rec.Attempt}); err != nil {
			return false, fmt.Errorf("dsed: persist cancel %s: %w", id, err)
		}
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

// JobBytes sums the on-disk footprint of one job's spool files.
func (q *Queue) JobBytes(id string) int64 {
	var total int64
	for _, path := range []string{q.journalPath(id), q.resultPath(id)} {
		if info, err := q.fs.Stat(path); err == nil {
			total += info.Size()
		}
	}
	return total
}

// GCJob removes a terminal job from the spool and the index. The journal
// is the job's record, so it goes first, together with the index entry and
// the in-memory stream (no handle keeps a deleted file alive): once it is
// gone recovery can never re-animate the job, and a crash before the
// result is removed leaves only an orphan the janitor collects. Live jobs
// are refused. Returns the bytes freed.
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
	_ = q.fs.Remove(q.resultPath(id))
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
