package dsed

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"slices"
	"sync"
	"testing"
	"time"

	"graphdse/internal/artifact"
	"graphdse/internal/dse"
)

// matchTearFS tears the next n journal writes whose bytes contain match (n
// < 0: every one): the FaultFS it wraps lets half of each reach the file,
// then fails the write with EIO.
type matchTearFS struct {
	*artifact.FaultFS
	match []byte

	mu sync.Mutex
	// n is guarded by mu.
	n int
}

func (m *matchTearFS) OpenFile(name string, flag int, perm os.FileMode) (artifact.File, error) {
	f, err := m.FaultFS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &matchTearFile{File: f, fs: m}, nil
}

type matchTearFile struct {
	artifact.File
	fs *matchTearFS
}

func (f *matchTearFile) Write(p []byte) (int, error) {
	f.fs.mu.Lock()
	if f.fs.n != 0 && bytes.Contains(p, f.fs.match) {
		f.fs.n--
		f.fs.TearNextWrite()
	}
	f.fs.mu.Unlock()
	return f.File.Write(p)
}

// referenceRun runs spec to done on a fault-free spool and returns its
// result bytes.
func referenceRun(t *testing.T, spec JobSpec) []byte {
	t.Helper()
	q, err := OpenQueue(t.TempDir(), QueueOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	if _, _, err := q.Submit(spec); err != nil {
		t.Fatal(err)
	}
	runQueued(t, q, NewTraceCache(1))
	return jobResult(t, q, spec.ID)
}

// TestCommitSurvivesDroppedProgressBatch: a storage fault drops one group
// commit of point records. The job's journal writer retries that batch in
// place — after a short pause, or, when the fault degrades the spool, once
// a probe heals it — so the job still commits the unfaulted run's bytes,
// with every point journaled exactly once and done counts in order.
func TestCommitSurvivesDroppedProgressBatch(t *testing.T) {
	spec := frameJobSpec()
	points := dse.EnumerateSpace(*spec.Space)
	want := referenceRun(t, spec)

	for _, governed := range []bool{false, true} {
		name := "retry"
		if governed {
			name = "degraded"
		}
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			ffs := &matchTearFS{FaultFS: artifact.NewFaultFS(nil), match: []byte(`"record":`), n: 1}
			q, err := OpenQueue(dir, QueueOptions{FS: ffs})
			if err != nil {
				t.Fatal(err)
			}
			defer q.Close()
			var g *DiskGovernor
			if governed {
				// One failure degrades the spool, and the governor's own
				// probes bring it back.
				g = NewDiskGovernor(ffs, dir, DiskPolicy{FailureStreak: 1, ProbeInterval: 10 * time.Millisecond})
				q.AttachDisk(g)
				ctx, cancel := context.WithCancel(context.Background())
				stopped := make(chan struct{})
				go func() {
					defer close(stopped)
					g.Run(ctx)
				}()
				defer func() {
					cancel()
					<-stopped
				}()
			}
			if _, _, err := q.Submit(spec); err != nil {
				t.Fatal(err)
			}
			runQueued(t, q, NewTraceCache(1))

			if n := ffs.Injected(); n != 1 {
				t.Fatalf("%d faults injected, want the one dropped batch", n)
			}
			if governed && g.Status().Recoveries == 0 {
				t.Fatal("the dropped batch never degraded the spool")
			}
			if got := jobResult(t, q, spec.ID); !bytes.Equal(got, want) {
				t.Fatalf("result after a dropped batch differs from the unfaulted run's:\n%s\nvs\n%s", got, want)
			}
			checkPointJournal(t, q.events.History(spec.ID), points)
		})
	}
}

// TestCommitFailedDoneAppendStaysRunning: when the done event cannot be
// appended, the job is not done — not in memory, and not after a restart,
// where it resumes with every point already journaled, sweeps nothing, and
// commits the bytes of an uninterrupted run.
func TestCommitFailedDoneAppendStaysRunning(t *testing.T) {
	spec := frameJobSpec()
	points := dse.EnumerateSpace(*spec.Space)
	want := referenceRun(t, spec)

	dir := t.TempDir()
	ffs := &matchTearFS{FaultFS: artifact.NewFaultFS(nil), match: []byte(`"state":"done"`), n: -1}
	q, err := OpenQueue(dir, QueueOptions{FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := q.Submit(spec); err != nil {
		t.Fatal(err)
	}
	runQueued(t, q, NewTraceCache(1))
	if ffs.Injected() == 0 {
		t.Fatal("no done append was attempted")
	}
	rec, err := q.Get(spec.ID)
	if err != nil || rec.State != StateRunning {
		t.Fatalf("job after a failed done append: %+v err=%v, want running", rec, err)
	}
	if onDisk := foldJournal(spec.ID, q.events.History(spec.ID)); onDisk == nil || onDisk.State != StateRunning {
		t.Fatalf("journal of a job whose done append failed folds to %+v, want running", onDisk)
	}
	q.Close()

	q2, err := OpenQueue(dir, QueueOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer q2.Close()
	if rep := q2.Recovery(); rep.Resumed != 1 || rep.Terminal != 0 {
		t.Fatalf("recovery after a failed done append: %+v, want the job resumed", rep)
	}
	if rec, err := q2.Get(spec.ID); err != nil || rec.State.Terminal() {
		t.Fatalf("job after restart: %+v err=%v, want non-terminal", rec, err)
	}
	runQueued(t, q2, NewTraceCache(1))
	if got := jobResult(t, q2, spec.ID); !bytes.Equal(got, want) {
		t.Fatalf("result committed after restart differs from the uninterrupted run's:\n%s\nvs\n%s", got, want)
	}
	checkPointJournal(t, q2.events.History(spec.ID), points)
}

// TestCancelFailedAppendStaysQueued: when a queued job's cancel event cannot
// be appended, the job is not cancelled — not in memory, where it stays
// queued and pending, and not after a restart.
func TestCancelFailedAppendStaysQueued(t *testing.T) {
	spec := frameJobSpec()
	dir := t.TempDir()
	ffs := &matchTearFS{FaultFS: artifact.NewFaultFS(nil), match: []byte(`"state":"cancelled"`), n: -1}
	q, err := OpenQueue(dir, QueueOptions{FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := q.Submit(spec); err != nil {
		t.Fatal(err)
	}
	if _, err := q.CancelQueued(spec.ID); err == nil {
		t.Fatal("cancel reported success over a failed append")
	}
	if ffs.Injected() == 0 {
		t.Fatal("no cancel append was attempted")
	}
	queuedNow := func(q *Queue, when string) {
		t.Helper()
		rec, err := q.Get(spec.ID)
		if err != nil || rec.State != StateQueued {
			t.Fatalf("job %s: %+v err=%v, want queued", when, rec, err)
		}
		if queued, _ := q.Depth(); queued != 1 {
			t.Fatalf("queue depth %s = %d, want 1", when, queued)
		}
		q.mu.Lock()
		defer q.mu.Unlock()
		if !slices.Contains(q.pending, spec.ID) {
			t.Fatalf("job %s is not pending: %v", when, q.pending)
		}
	}
	queuedNow(q, "after a failed cancel append")
	q.Close()

	q2, err := OpenQueue(dir, QueueOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer q2.Close()
	queuedNow(q2, "after restart")
}

// TestResultReplaysGateOverJournaledTraceEvents: re-deriving a result runs
// the invariant gate over the trace event count the done event journaled.
// The right count reproduces the committed bytes; any other count makes the
// gate quarantine the records and disagree with the journaled counts.
func TestResultReplaysGateOverJournaledTraceEvents(t *testing.T) {
	spec := frameJobSpec()
	q, err := OpenQueue(t.TempDir(), QueueOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	if _, _, err := q.Submit(spec); err != nil {
		t.Fatal(err)
	}
	runQueued(t, q, NewTraceCache(1))
	rec, err := q.Get(spec.ID)
	if err != nil || rec.TraceEvents == 0 {
		t.Fatalf("done job %+v (err %v) carries no trace event count", rec, err)
	}
	history := q.events.History(spec.ID)
	got, err := renderResult(&rec, history)
	if err != nil {
		t.Fatal(err)
	}
	if want := jobResult(t, q, spec.ID); !bytes.Equal(got, want) {
		t.Fatalf("re-derived result differs from the committed one:\n%s\nvs\n%s", got, want)
	}
	rec.TraceEvents++
	if _, err := renderResult(&rec, history); err == nil {
		t.Fatal("a wrong trace event count re-derived a result")
	}
}

// TestResultCacheBoundAndGC: the report cache keeps the newest
// resultCacheEntries documents, and GC drops a job's entry with its
// journal.
func TestResultCacheBoundAndGC(t *testing.T) {
	var c resultCache
	for i := 0; i <= resultCacheEntries; i++ {
		c.put(fmt.Sprint("j", i), []byte{byte(i)})
	}
	if _, ok := c.get("j0"); ok {
		t.Fatal("the oldest entry survived a full cache's insert")
	}
	if d, ok := c.get(fmt.Sprint("j", resultCacheEntries)); !ok || d[0] != resultCacheEntries {
		t.Fatal("the newest entry is missing")
	}
	if len(c.order) != resultCacheEntries || len(c.data) != resultCacheEntries {
		t.Fatalf("cache holds %d/%d entries, want %d", len(c.order), len(c.data), resultCacheEntries)
	}

	q, err := OpenQueue(t.TempDir(), QueueOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	mustSubmit(t, q, "gone")
	if err := q.Finalize("gone", Verdict{State: StateDone}, []byte("report\n")); err != nil {
		t.Fatal(err)
	}
	if _, ok := q.results.get("gone"); !ok {
		t.Fatal("commit did not cache the report")
	}
	if _, err := q.GCJob("gone"); err != nil {
		t.Fatal(err)
	}
	if _, ok := q.results.get("gone"); ok {
		t.Fatal("GC left the job's report cached")
	}
}
