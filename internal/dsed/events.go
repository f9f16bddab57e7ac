package dsed

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"graphdse/internal/artifact"
)

// Event is one entry of a job's durable event stream. Events carry a
// per-job sequence number assigned at journal-append time: seqs start at 1,
// increase by exactly 1, and — because the journal is replayed at daemon
// restart to recover the counter — stay monotonic and gap-free across
// crashes. That is the whole resume contract: a client that remembers the
// last seq it saw can reconnect with `Last-Event-ID: <seq>` and receive
// exactly the events it missed, no gaps and no duplicates, regardless of
// how many times the daemon died in between.
//
// Events are deliberately timestamp-free: a resumed stream replays the
// journal bytes, and nondeterministic fields would make otherwise-identical
// histories diverge.
type Event struct {
	Seq  uint64 `json:"seq"`
	Job  string `json:"job"`
	Type string `json:"type"`
	// State is set for EventState records (and names the terminal state
	// that ends a stream).
	State JobState `json:"state,omitempty"`
	// Attempt counts queued→running transitions at the time of the event.
	Attempt int `json:"attempt,omitempty"`
	// Done/Total carry sweep progress for EventProgress records.
	Done  int `json:"done,omitempty"`
	Total int `json:"total,omitempty"`
	// Survivors/Quarantined summarize the gate outcome on seal and
	// terminal-state records.
	Survivors   int `json:"survivors,omitempty"`
	Quarantined int `json:"quarantined,omitempty"`
	// Error carries the failure detail of failed/cancelled states and
	// per-point failure records.
	Error string `json:"error,omitempty"`
	// Point/Class/Attempts identify one failed design point for
	// EventFailure records.
	Point    string `json:"point,omitempty"`
	Class    string `json:"class,omitempty"`
	Attempts int    `json:"attempts,omitempty"`
	// Spec and SubmitSeq ride on a job's first event (its queued state):
	// the journal is the job's only durable record, and recovery rebuilds
	// the job from them.
	Spec      *JobSpec `json:"spec,omitempty"`
	SubmitSeq uint64   `json:"submit_seq,omitempty"`
	// Record carries one completed design point's canonical
	// dse.EncodeRecord line on EventProgress records; a resumed job skips
	// every point its journal already holds.
	Record json.RawMessage `json:"record,omitempty"`
}

// Event types. Everything except EventLag is journaled before it is
// observable; EventLag is a parting notice written only to the one
// subscriber being evicted, so it carries no sequence number and never
// advances a client's resume position.
const (
	// EventState records a job lifecycle transition (see JobState).
	EventState = "state"
	// EventProgress records sweep progress (Done/Total completed points),
	// carrying the completed point's record when one just landed.
	EventProgress = "progress"
	// EventFailure records one design point's terminal failure — the
	// streaming form of the sweep failure log.
	EventFailure = "failure"
	// EventSeal records that the job's result document was sealed to disk;
	// it always precedes the terminal done state event.
	EventSeal = "seal"
	// EventLag tells a slow consumer it was disconnected for falling
	// behind and must reconnect with Last-Event-ID to resume.
	EventLag = "lag"
)

// Terminal reports whether the event ends its job's stream: the stream of a
// job is closed after its terminal state transition is delivered.
func (e *Event) Terminal() bool { return e.Type == EventState && e.State.Terminal() }

// eventEnvelope is the on-disk frame of one journal record: the marshalled
// event plus a CRC32-Castagnoli over exactly those bytes, one frame per
// line. The journal is append-only; a torn final line (crash mid-append) is
// expected and salvaged as a valid prefix at replay.
type eventEnvelope struct {
	CRC uint32          `json:"crc"`
	Ev  json.RawMessage `json:"ev"`
}

// encodeEvent frames one event for the journal. The frame is assembled by
// hand: body is already compact JSON, and json.Marshal of the envelope
// would only re-scan it (a whole point record, on progress events) to
// produce the same bytes.
func encodeEvent(ev *Event) ([]byte, error) {
	body, err := json.Marshal(ev)
	if err != nil {
		return nil, err
	}
	out := make([]byte, 0, len(body)+32)
	out = append(out, `{"crc":`...)
	out = strconv.AppendUint(out, uint64(artifact.Checksum(body)), 10)
	out = append(out, `,"ev":`...)
	out = append(out, body...)
	return append(out, "}\n"...), nil
}

// decodeEvent verifies and unmarshals one journal line. Checksum or
// structural damage returns artifact.ErrCorrupt.
func decodeEvent(line []byte) (Event, error) {
	var env eventEnvelope
	if err := json.Unmarshal(line, &env); err != nil {
		return Event{}, fmt.Errorf("%w: event frame: %v", artifact.ErrCorrupt, err)
	}
	if got := artifact.Checksum(env.Ev); got != env.CRC {
		return Event{}, fmt.Errorf("%w: event checksum %08x != %08x", artifact.ErrCorrupt, got, env.CRC)
	}
	var ev Event
	if err := json.Unmarshal(env.Ev, &ev); err != nil {
		return Event{}, fmt.Errorf("%w: event body: %v", artifact.ErrCorrupt, err)
	}
	if ev.Seq == 0 || ev.Type == "" {
		return Event{}, fmt.Errorf("%w: event missing seq or type", artifact.ErrCorrupt)
	}
	return ev, nil
}

// EventLogStats is the event path's observability snapshot, surfaced in
// /statusz.
type EventLogStats struct {
	// Written counts journal records appended (and fsynced) this process.
	Written int64 `json:"journal_written"`
	// Replayed counts journal records read back — restart recovery plus
	// subscriber backlog replays.
	Replayed int64 `json:"journal_replayed"`
	// Errors counts journal append failures (the stream degrades, jobs
	// do not).
	Errors int64 `json:"journal_errors"`
	// Subscribers is the current number of attached subscribers.
	Subscribers int64 `json:"subscribers"`
	// SlowEvictions counts subscribers disconnected for falling behind.
	SlowEvictions int64 `json:"slow_evictions"`
	// ResumeHits counts subscriptions that arrived with a Last-Event-ID
	// position; FullReplays counts those that started from scratch.
	ResumeHits  int64 `json:"resume_hits"`
	FullReplays int64 `json:"full_replays"`
}

// A Subscriber is one attached consumer of a job's event stream. Events
// arrive on Events(); if the consumer falls so far behind that its buffer
// fills, the hub disconnects it — Evicted() closes — rather than ever
// blocking the publisher. The channel may deliver events the subscriber
// already received via its backlog replay; consumers must skip events with
// Seq at or below their last delivered position.
type Subscriber struct {
	job     string
	ch      chan Event
	evicted chan struct{}
}

// Events is the live event feed.
func (s *Subscriber) Events() <-chan Event { return s.ch }

// Evicted is closed when the hub disconnects this subscriber for lagging.
func (s *Subscriber) Evicted() <-chan struct{} { return s.evicted }

// jobStream is one job's journal handle plus its attached subscribers. The
// file is opened lazily, kept open while the job is live, and closed when
// the terminal state event is journaled, so open file handles are bounded
// by active jobs rather than spool history.
type jobStream struct {
	mu sync.Mutex
	// path is set once in stream() and immutable afterwards.
	path string
	// f is guarded by mu.
	f artifact.File
	// replayed is guarded by mu.
	replayed bool
	// size is the byte length of the journal's valid prefix once replayed;
	// guarded by mu.
	size int64
	// next is the next seq to assign (1-based); guarded by mu.
	next uint64
	// subs is guarded by mu.
	subs map[*Subscriber]struct{}
}

// EventLog is the durable per-job event journal plus its bounded fan-out
// hub. The invariant ordering every emission follows is
//
//	journal append → fsync → publish to subscribers
//
// so an event is durable before it is observable: anything a client ever
// saw is replayable after kill -9, which is what makes Last-Event-ID
// resume gap-free. Publishing never blocks — a subscriber whose buffer is
// full is evicted on the spot — so the scheduler's progress is never
// hostage to a stalled network peer.
type EventLog struct {
	fs      artifact.FS
	dir     string
	bufSize int

	// observe, when set, receives every journal append's outcome (nil on
	// success) — the disk governor's health feed. Set before serving.
	observe func(error)

	mu sync.Mutex
	// streams is guarded by mu.
	streams map[string]*jobStream

	written     atomic.Int64
	replayed    atomic.Int64
	errors      atomic.Int64
	subscribers atomic.Int64
	evictions   atomic.Int64
	resumeHits  atomic.Int64
	fullReplays atomic.Int64
}

// NewEventLog opens an event log rooted at dir (one journal file per job)
// on the real filesystem. bufSize bounds each subscriber's delivery buffer
// (default 64).
func NewEventLog(dir string, bufSize int) *EventLog {
	return NewEventLogFS(artifact.OS, dir, bufSize)
}

// NewEventLogFS is NewEventLog against an explicit filesystem; the daemon
// threads its spool FS here so chaos tests can fault journal appends.
func NewEventLogFS(fsys artifact.FS, dir string, bufSize int) *EventLog {
	if bufSize <= 0 {
		bufSize = 64
	}
	if fsys == nil {
		fsys = artifact.OS
	}
	return &EventLog{fs: fsys, dir: dir, bufSize: bufSize, streams: map[string]*jobStream{}}
}

// SetWriteObserver installs the durable-write outcome observer (nil on
// success, the append/fsync error otherwise). Install before serving.
func (l *EventLog) SetWriteObserver(fn func(error)) { l.observe = fn }

// observeWrite reports one append outcome to the observer, if any.
func (l *EventLog) observeWrite(err error) {
	if l.observe != nil {
		l.observe(err)
	}
}

// Stats snapshots the counters.
func (l *EventLog) Stats() EventLogStats {
	return EventLogStats{
		Written:       l.written.Load(),
		Replayed:      l.replayed.Load(),
		Errors:        l.errors.Load(),
		Subscribers:   l.subscribers.Load(),
		SlowEvictions: l.evictions.Load(),
		ResumeHits:    l.resumeHits.Load(),
		FullReplays:   l.fullReplays.Load(),
	}
}

// stream returns (creating if needed) the in-memory handle for one job.
func (l *EventLog) stream(job string) *jobStream {
	l.mu.Lock()
	defer l.mu.Unlock()
	st, ok := l.streams[job]
	if !ok {
		st = &jobStream{
			path: l.path(job),
			subs: map[*Subscriber]struct{}{},
		}
		l.streams[job] = st
	}
	return st
}

// path names job's journal file. Job IDs are validated at admission
// (safeID), so the name cannot escape the journal directory.
func (l *EventLog) path(job string) string { return filepath.Join(l.dir, job+".jsonl") }

// scanJournal reads every valid event from a journal file, stopping at the
// first damaged or unterminated line: the valid prefix is the journal,
// exactly as the artifact layer treats torn containers. It also returns the
// byte length of that valid prefix so replay can truncate damage away. A
// missing file is an empty journal. An unterminated tail is never part of
// the stream: Emit publishes only after the full record (newline included,
// one Write call) is appended and fsynced, so an unterminated record was
// never observable.
func scanJournal(fsys artifact.FS, path string) ([]Event, int64) {
	data, err := fsys.ReadFile(path)
	if err != nil {
		return nil, 0
	}
	return scanJournalBytes(data)
}

// scanJournalBytes is scanJournal over in-memory journal bytes: the valid
// prefix of decodable, newline-terminated frames, plus its byte length.
// It is total — any input yields some (possibly empty) prefix — which is
// the property the fuzz target drives at.
func scanJournalBytes(data []byte) ([]Event, int64) {
	var out []Event
	var valid int64
	off := 0
	for off < len(data) {
		end := bytes.IndexByte(data[off:], '\n')
		if end < 0 {
			break
		}
		line := data[off : off+end]
		off += end + 1
		if len(bytes.TrimSpace(line)) > 0 {
			ev, derr := decodeEvent(line)
			if derr != nil {
				return out, valid
			}
			out = append(out, ev)
		}
		valid = int64(off)
	}
	return out, valid
}

// replayLocked recovers the stream's sequence counter from disk on first
// touch after a restart, truncating any damaged tail so subsequent appends
// extend the valid prefix instead of splicing onto garbage. The truncated
// bytes were never observable (publication strictly follows a successful
// append), so their seqs are safely reused. Caller holds st.mu.
func (st *jobStream) replayLocked(l *EventLog) {
	if st.replayed {
		return
	}
	evs, valid := scanJournal(l.fs, st.path)
	if fi, err := l.fs.Stat(st.path); err == nil && fi.Size() > valid {
		_ = l.fs.Truncate(st.path, valid)
	}
	st.size = valid
	st.next = 1
	for i := range evs {
		ev := &evs[i]
		if ev.Seq >= st.next {
			st.next = ev.Seq + 1
		}
	}
	l.replayed.Add(int64(len(evs)))
	st.replayed = true
}

// repairLocked resets the stream after a failed append: the journal may now
// end in a torn record — or a whole one whose fsync failed, which must
// never be trusted — and appending onto it would hide every later event
// behind the damage. The journal is cut back to its valid prefix, so a
// failed append leaves no trace, and dropping the handle and the replayed
// flag makes the next Emit re-scan what is actually durable. Caller holds
// st.mu.
func (st *jobStream) repairLocked(l *EventLog) {
	if st.f != nil {
		st.f.Close()
		st.f = nil
	}
	_ = l.fs.Truncate(st.path, st.size)
	st.replayed = false
}

// Emit journals one event for job — assigning its sequence number, framing
// it with a CRC, appending, and fsyncing — and only then fans it out to
// subscribers. Fan-out never blocks: a subscriber with no buffer space is
// evicted immediately. An append error degrades the stream (counted in
// Stats().Errors), never the job.
func (l *EventLog) Emit(job string, ev Event) error {
	st := l.stream(job)
	st.mu.Lock()
	defer st.mu.Unlock()
	st.replayLocked(l)

	ev.Job = job
	ev.Seq = st.next
	data, err := encodeEvent(&ev)
	if err != nil {
		l.errors.Add(1)
		return fmt.Errorf("dsed: encode event: %w", err)
	}
	if st.f == nil {
		f, oerr := l.fs.OpenFile(st.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if oerr != nil {
			l.errors.Add(1)
			l.observeWrite(oerr)
			return fmt.Errorf("dsed: open event journal: %w", oerr)
		}
		st.f = f
	}
	if _, err := st.f.Write(data); err != nil {
		l.errors.Add(1)
		l.observeWrite(err)
		st.repairLocked(l)
		return fmt.Errorf("dsed: append event journal: %w", err)
	}
	if err := st.f.Sync(); err != nil {
		l.errors.Add(1)
		l.observeWrite(err)
		st.repairLocked(l)
		return fmt.Errorf("dsed: sync event journal: %w", err)
	}
	l.observeWrite(nil)
	st.size += int64(len(data))
	st.next++
	l.written.Add(1)

	// Durable → observable. Never block on a subscriber: a full buffer
	// means the consumer has fallen a whole window behind, and the journal
	// it can resume from is already complete.
	for sub := range st.subs {
		select {
		case sub.ch <- ev:
		default:
			delete(st.subs, sub)
			close(sub.evicted)
			l.evictions.Add(1)
			l.subscribers.Add(-1)
		}
	}

	if ev.Terminal() {
		st.f.Close()
		st.f = nil
	}
	return nil
}

// Subscribe attaches a consumer to job's stream, resuming after seq
// `after` (0 replays from the beginning). It returns the subscriber plus
// the journal backlog — every durable event with after < Seq ≤ the stream's
// position at attach time. The caller delivers the backlog first, then
// drains Events(), skipping anything at or below its last delivered seq:
// the two sources overlap but can never gap, because every event is on disk
// before it is published.
func (l *EventLog) Subscribe(job string, after uint64) (*Subscriber, []Event, error) {
	st := l.stream(job)
	st.mu.Lock()
	st.replayLocked(l)
	sub := &Subscriber{
		job:     job,
		ch:      make(chan Event, l.bufSize),
		evicted: make(chan struct{}),
	}
	st.subs[sub] = struct{}{}
	cur := st.next - 1
	st.mu.Unlock()
	l.subscribers.Add(1)
	if after > 0 {
		l.resumeHits.Add(1)
	} else {
		l.fullReplays.Add(1)
	}

	var backlog []Event
	if after < cur {
		for _, ev := range l.History(job) {
			if ev.Seq > after && ev.Seq <= cur {
				backlog = append(backlog, ev)
			}
		}
		l.replayed.Add(int64(len(backlog)))
	}
	return sub, backlog, nil
}

// History returns job's durable event history: every valid journaled
// event, in seq order.
func (l *EventLog) History(job string) []Event {
	st := l.stream(job)
	st.mu.Lock()
	defer st.mu.Unlock()
	evs, _ := scanJournal(l.fs, st.path)
	return evs
}

// DropStream closes and forgets job's in-memory stream handle so the
// janitor can delete the journal out from under it. Subscribers, if any,
// are evicted. The file itself is the caller's to remove.
func (l *EventLog) DropStream(job string) {
	l.mu.Lock()
	st, ok := l.streams[job]
	if ok {
		delete(l.streams, job)
	}
	l.mu.Unlock()
	if !ok {
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.f != nil {
		st.f.Close()
		st.f = nil
	}
	for sub := range st.subs {
		delete(st.subs, sub)
		close(sub.evicted)
		l.evictions.Add(1)
		l.subscribers.Add(-1)
	}
}

// jobOfFile maps a spool file name <id><ext> back to its job ID ("" for
// any other file, such as an atomic-write temp or a .corrupt quarantine).
func jobOfFile(name, ext string) string {
	id, ok := strings.CutSuffix(name, ext)
	if !ok || strings.HasPrefix(name, ".") {
		return ""
	}
	return id
}

// Unsubscribe detaches a subscriber (idempotent; eviction already detaches).
func (l *EventLog) Unsubscribe(sub *Subscriber) {
	if sub == nil {
		return
	}
	st := l.stream(sub.job)
	st.mu.Lock()
	_, attached := st.subs[sub]
	delete(st.subs, sub)
	st.mu.Unlock()
	if attached {
		l.subscribers.Add(-1)
	}
}

// Close releases every open journal handle (the daemon's drain path).
func (l *EventLog) Close() {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, st := range l.streams {
		st.mu.Lock()
		if st.f != nil {
			st.f.Close()
			st.f = nil
		}
		st.mu.Unlock()
	}
}
