package dsed

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// finalizeJob drives a submitted job to a terminal state, first growing
// its journal by about padBytes with a padded failure-log entry.
func finalizeJob(t *testing.T, q *Queue, id string, state JobState, padBytes int) {
	t.Helper()
	if padBytes > 0 {
		if err := q.events.Emit(id, Event{Type: EventFailure, Error: strings.Repeat("x", padBytes)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := q.Finalize(id, Verdict{State: state}, nil); err != nil {
		t.Fatal(err)
	}
}

func mustSubmit(t *testing.T, q *Queue, id string) {
	t.Helper()
	if _, _, err := q.Submit(workloadSpec(id, "acme")); err != nil {
		t.Fatal(err)
	}
}

// TestJanitorRetentionCountAndBytes: the janitor evicts terminal jobs
// oldest-first until both the count and byte caps hold, never touching
// live jobs, and every spool file of an evicted job disappears.
func TestJanitorRetentionCountAndBytes(t *testing.T) {
	q, err := OpenQueue(t.TempDir(), QueueOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()

	for _, id := range []string{"old", "mid", "new"} {
		mustSubmit(t, q, id)
		finalizeJob(t, q, id, StateDone, 4096)
	}
	mustSubmit(t, q, "live") // queued: retention must never touch it

	j := NewJanitor(q, RetentionPolicy{MaxJobs: 1})
	j.Sweep()

	if q.Known("old") || q.Known("mid") {
		t.Fatal("oldest terminal jobs survived a MaxJobs=1 sweep")
	}
	if !q.Known("new") || !q.Known("live") {
		t.Fatal("sweep removed the newest terminal job or a live job")
	}
	for _, id := range []string{"old", "mid"} {
		if _, err := os.Stat(q.journalPath(id)); !os.IsNotExist(err) {
			t.Fatalf("GC'd job %s left its journal behind", id)
		}
	}
	st := j.Stats()
	if st.JobsRemoved != 2 || st.BytesFreed == 0 {
		t.Fatalf("stats after sweep: %+v", st)
	}

	// Byte cap: a fresh queue whose one large job exceeds MaxBytes while a
	// small one fits.
	q2, err := OpenQueue(t.TempDir(), QueueOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer q2.Close()
	mustSubmit(t, q2, "big")
	finalizeJob(t, q2, "big", StateDone, 64<<10)
	mustSubmit(t, q2, "small")
	finalizeJob(t, q2, "small", StateDone, 512)
	j2 := NewJanitor(q2, RetentionPolicy{MaxBytes: 8 << 10})
	j2.Sweep()
	if q2.Known("big") {
		t.Fatal("byte cap kept the oldest oversized job")
	}
	if !q2.Known("small") {
		t.Fatal("byte cap over-evicted: small job under the cap removed")
	}
}

// TestJanitorRetentionAge: terminal jobs older than MaxAge are collected.
func TestJanitorRetentionAge(t *testing.T) {
	q, err := OpenQueue(t.TempDir(), QueueOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	mustSubmit(t, q, "ancient")
	finalizeJob(t, q, "ancient", StateFailed, 0)
	mustSubmit(t, q, "fresh")
	finalizeJob(t, q, "fresh", StateFailed, 0)
	old := time.Now().Add(-48 * time.Hour)
	if err := os.Chtimes(q.journalPath("ancient"), old, old); err != nil {
		t.Fatal(err)
	}

	j := NewJanitor(q, RetentionPolicy{MaxAge: time.Hour})
	j.Sweep()
	if q.Known("ancient") {
		t.Fatal("job past MaxAge survived")
	}
	if !q.Known("fresh") {
		t.Fatal("fresh job collected by MaxAge")
	}
}

// TestJanitorOrphansAndTemps: journals owned by no known job (the residue
// of a crash mid-GC) and stale atomic-write temps in the spool root are
// collected; a known job's journal is not.
func TestJanitorOrphansAndTemps(t *testing.T) {
	q, err := OpenQueue(t.TempDir(), QueueOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	mustSubmit(t, q, "owned")

	orphans := []string{
		filepath.Join(q.dir, eventsDir, "ghost.jsonl"),
		filepath.Join(q.dir, eventsDir, "spook.jsonl"),
	}
	for _, p := range orphans {
		if err := os.WriteFile(p, []byte("residue"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	staleTemp := filepath.Join(q.dir, "..diskprobe.tmp-123")
	freshTemp := filepath.Join(q.dir, "..diskprobe.tmp-456")
	for _, p := range []string{staleTemp, freshTemp} {
		if err := os.WriteFile(p, []byte("tmp"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	old := time.Now().Add(-2 * time.Hour)
	if err := os.Chtimes(staleTemp, old, old); err != nil {
		t.Fatal(err)
	}

	j := NewJanitor(q, RetentionPolicy{})
	j.Sweep()

	for _, p := range orphans {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Fatalf("orphan %s survived the sweep", p)
		}
	}
	if _, err := os.Stat(staleTemp); !os.IsNotExist(err) {
		t.Fatal("stale atomic-write temp survived")
	}
	if _, err := os.Stat(freshTemp); err != nil {
		t.Fatal("fresh temp removed: TempMaxAge ignored")
	}
	if _, err := os.Stat(q.journalPath("owned")); err != nil {
		t.Fatal("known job's journal collected as an orphan")
	}
	st := j.Stats()
	if st.Orphans != int64(len(orphans)) || st.Temps != 1 {
		t.Fatalf("stats: %+v, want %d orphans and 1 temp", st, len(orphans))
	}
}

// TestJanitorKeepsJournalOfDottedID: a job whose ID ends in ".snap" owns
// events/<id>.jsonl like any other job. The spool once named compaction
// snapshots <id>.snap.jsonl, so the orphan sweep read job "x.snap"'s
// journal as the snapshot of unknown job "x" and deleted a live job.
func TestJanitorKeepsJournalOfDottedID(t *testing.T) {
	q, err := OpenQueue(t.TempDir(), QueueOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	mustSubmit(t, q, "x.snap")

	j := NewJanitor(q, RetentionPolicy{})
	j.Sweep()

	if _, err := os.Stat(q.journalPath("x.snap")); err != nil {
		t.Fatalf("live job x.snap lost its journal to the orphan sweep: %v", err)
	}
	if st := j.Stats(); st.Orphans != 0 {
		t.Fatalf("stats: %+v, want no orphans", st)
	}
}

// TestCorruptQuarantineCap: recovery sets damaged journals aside as
// *.corrupt but never hoards them — beyond MaxCorrupt the oldest are
// evicted, and the recovery report accounts for both.
func TestCorruptQuarantineCap(t *testing.T) {
	dir := t.TempDir()
	q, err := OpenQueue(dir, QueueOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mustSubmit(t, q, "good")
	q.Close()

	jobs := filepath.Join(dir, eventsDir)
	for _, name := range []string{"c1", "c2", "c3", "c4", "c5"} {
		p := filepath.Join(jobs, name+".jsonl")
		if err := os.WriteFile(p, []byte("not a journal frame\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	q2, err := OpenQueue(dir, QueueOptions{MaxCorrupt: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer q2.Close()
	rep := q2.Recovery()
	if rep.CorruptRetained != 2 || rep.CorruptEvicted != 3 {
		t.Fatalf("recovery report: %+v, want 2 retained / 3 evicted", rep)
	}
	if !q2.Known("good") {
		t.Fatal("healthy journal lost during quarantine capping")
	}
	ents, err := os.ReadDir(jobs)
	if err != nil {
		t.Fatal(err)
	}
	var quarantined int
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".corrupt") {
			quarantined++
		}
	}
	if quarantined != 2 {
		t.Fatalf("%d quarantine files on disk, want 2", quarantined)
	}
}
