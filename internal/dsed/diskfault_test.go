package dsed

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
	"sync"
	"testing"
	"time"

	"graphdse/internal/artifact"
)

// durableSnapshot captures every committed file under one spool subdir so a
// chaos phase can prove fault injection corrupted nothing that already
// existed. Atomic-write temps are transient by contract and excluded.
func durableSnapshot(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte)
	ents, err := os.ReadDir(dir)
	if err != nil {
		return out
	}
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || (len(name) > 0 && name[0] == '.') {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		out[name] = data
	}
	return out
}

func sameSnapshot(a, b map[string][]byte) error {
	for name, data := range a {
		got, ok := b[name]
		if !ok {
			return fmt.Errorf("durable file %s disappeared", name)
		}
		if !bytes.Equal(data, got) {
			return fmt.Errorf("durable file %s changed under fault", name)
		}
	}
	return nil
}

// TestChaosMatrixQueuePersistence drives every spool persistence path —
// submit (the journal's first event), terminal append and progress append
// — and the disk probe through the full storage-fault matrix. The
// invariants are identical for every fault that reaches a path: the
// operation errors instead of panicking, nothing already durable changes,
// the governor degrades to read-only, and clearing the fault restores full
// service with the journal's valid prefix intact and every job recoverable
// from it.
func TestChaosMatrixQueuePersistence(t *testing.T) {
	cases := []struct {
		name string
		arm  func(f *artifact.FaultFS)
		// journalFails: the fault breaks journal appends (submit, terminal
		// and progress events). A failed rename does not — appends never
		// rename; only the disk probe's atomic write does — so there the
		// appends must succeed and the spool stays writable.
		journalFails bool
	}{
		{"enospc", func(f *artifact.FaultFS) { f.SetWriteBudget(0) }, true},
		{"eio-write", func(f *artifact.FaultFS) { f.FailWrites(nil, 0) }, true},
		{"eio-fsync", func(f *artifact.FaultFS) { f.FailSyncs(nil, 0) }, true},
		{"failed-rename", func(f *artifact.FaultFS) { f.FailRenames(nil, 0) }, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			ffs := artifact.NewFaultFS(nil)
			q, err := OpenQueue(dir, QueueOptions{FS: ffs})
			if err != nil {
				t.Fatal(err)
			}
			defer q.Close()
			g := NewDiskGovernor(ffs, dir, DiskPolicy{FailureStreak: 1, ProbeInterval: time.Hour})
			q.AttachDisk(g)

			// Seed durable state before the fault: two jobs with journal
			// history — one to keep, one to finalize under the fault.
			if _, _, err := q.Submit(workloadSpec("seed", "acme")); err != nil {
				t.Fatal(err)
			}
			if _, _, err := q.Submit(workloadSpec("fin", "acme")); err != nil {
				t.Fatal(err)
			}
			if err := q.events.Emit("seed", Event{Type: EventProgress, Done: 1, Total: 4}); err != nil {
				t.Fatal(err)
			}
			eventsSnap := durableSnapshot(t, filepath.Join(dir, eventsDir))
			journalPath := filepath.Join(dir, eventsDir, "seed.jsonl")
			preEvents, _ := scanJournal(artifact.OS, journalPath)
			if len(preEvents) == 0 {
				t.Fatal("seed journal empty before fault")
			}

			c.arm(ffs)

			// expect checks one persistence path's outcome under the fault.
			expect := func(path string, err error, fails bool) {
				t.Helper()
				if fails && err == nil {
					t.Fatalf("%s under storage fault reported success", path)
				}
				if !fails && err != nil {
					t.Fatalf("%s failed under a fault it never meets: %v", path, err)
				}
			}
			// Submit under fault: a failed submit never makes the job
			// visible.
			_, _, err = q.Submit(workloadSpec("victim", "acme"))
			expect("submit", err, c.journalFails)
			if err != nil && q.Known("victim") {
				t.Fatal("failed submit left the job visible")
			}
			// Terminal append under fault: a failed one is not durably
			// adopted (the events snapshot check below; a restart would
			// recover the job as queued).
			fin := Verdict{State: StateFailed, Error: "chaos"}
			expect("finalize", q.Finalize("fin", fin, nil), c.journalFails)
			if rec, _ := q.Get("fin"); rec.State.Terminal() == c.journalFails {
				t.Fatalf("finalize under fault left fin %s in memory", rec.State)
			}
			// Progress append under fault: errors, job unharmed.
			expect("event append", q.events.Emit("seed", Event{Type: EventProgress, Done: 2, Total: 4}), c.journalFails)
			// The disk probe under fault: every fault class breaks it.
			if g.Probe() {
				t.Fatal("disk probe under storage fault reported success")
			}

			// One observed append failure is enough (FailureStreak: 1):
			// read-only. A fault no append meets leaves the spool writable.
			if c.journalFails {
				if g.Mode() != DiskDegraded {
					t.Fatalf("mode %q after write failure, want degraded", g.Mode())
				}
				if err := g.Admit(); !errors.Is(err, ErrDegraded) {
					t.Fatalf("Admit while degraded: got %v, want ErrDegraded", err)
				}
			} else if g.Mode() != DiskOK {
				t.Fatalf("mode %q under a fault no append meets, want ok", g.Mode())
			}

			// Nothing that was durable before the fault changed: every
			// journal when appends failed, and in any case the valid prefix
			// that replays every pre-fault event.
			if c.journalFails {
				if err := sameSnapshot(eventsSnap, durableSnapshot(t, filepath.Join(dir, eventsDir))); err != nil {
					t.Fatal(err)
				}
			}
			midEvents, _ := scanJournal(artifact.OS, journalPath)
			if len(midEvents) < len(preEvents) {
				t.Fatalf("journal lost events under fault: %d -> %d", len(preEvents), len(midEvents))
			}
			for i := range preEvents {
				if midEvents[i].Seq != preEvents[i].Seq {
					t.Fatalf("journal prefix changed under fault at %d", i)
				}
			}

			// Heal the disk: a probe write proves it, service resumes.
			ffs.Clear()
			if !g.Probe() {
				t.Fatal("probe failed after fault cleared")
			}
			if g.Mode() != DiskOK {
				t.Fatalf("mode %q after successful probe, want ok", g.Mode())
			}
			if _, _, err := q.Submit(workloadSpec("victim", "acme")); err != nil {
				t.Fatalf("submit after recovery: %v", err)
			}
			if err := q.events.Emit("seed", Event{Type: EventProgress, Done: 3, Total: 4}); err != nil {
				t.Fatalf("event append after recovery: %v", err)
			}
			if c.journalFails {
				if err := q.Finalize("fin", fin, nil); err != nil {
					t.Fatalf("finalize after recovery: %v", err)
				}
			}
			// The journal self-healed: the post-recovery event is replayable,
			// not hidden behind torn bytes from the failed append.
			postEvents, _ := scanJournal(artifact.OS, journalPath)
			last := postEvents[len(postEvents)-1]
			if last.Type != EventProgress || last.Done != 3 {
				t.Fatalf("post-recovery event not replayable from journal: %+v", last)
			}

			// Every job folds back from its journal after a restart, with
			// the terminal transition journaled exactly once.
			q.Close()
			q2, err := OpenQueue(dir, QueueOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer q2.Close()
			if rep := q2.Recovery(); rep.Terminal != 1 || rep.Requeued != 2 || rep.Corrupt != 0 {
				t.Fatalf("recovery after the drill: %+v", rep)
			}
			if rec, err := q2.Get("fin"); err != nil || rec.State != StateFailed || rec.Error != "chaos" {
				t.Fatalf("finalized job after restart: %+v err=%v", rec, err)
			}
			terminals := 0
			for _, ev := range q2.events.History("fin") {
				if ev.Terminal() {
					terminals++
				}
			}
			if terminals != 1 {
				t.Fatalf("fin journal holds %d terminal events, want 1", terminals)
			}
		})
	}
}

// TestChaosTornWriteSelfHeals: a torn journal append (prefix persisted,
// then EIO) must not hide later events behind the damage — the next append
// truncates the torn tail and extends the valid prefix.
func TestChaosTornWriteSelfHeals(t *testing.T) {
	dir := t.TempDir()
	ffs := artifact.NewFaultFS(nil)
	q, err := OpenQueue(dir, QueueOptions{FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	g := NewDiskGovernor(ffs, dir, DiskPolicy{FailureStreak: 1, ProbeInterval: time.Hour})
	q.AttachDisk(g)

	if _, _, err := q.Submit(workloadSpec("j", "")); err != nil {
		t.Fatal(err)
	}
	if err := q.events.Emit("j", Event{Type: EventProgress, Done: 1, Total: 3}); err != nil {
		t.Fatal(err)
	}

	ffs.TearNextWrite()
	if err := q.events.Emit("j", Event{Type: EventProgress, Done: 2, Total: 3}); err == nil {
		t.Fatal("torn append reported success")
	}
	if g.Mode() != DiskDegraded {
		t.Fatalf("mode %q after torn write, want degraded", g.Mode())
	}

	// TearNextWrite is single-shot; the disk is "healthy" again.
	if !g.Probe() {
		t.Fatal("probe after torn write")
	}
	if err := q.events.Emit("j", Event{Type: EventProgress, Done: 3, Total: 3}); err != nil {
		t.Fatalf("append after torn write: %v", err)
	}
	evs, _ := scanJournal(artifact.OS, filepath.Join(dir, eventsDir, "j.jsonl"))
	last := evs[len(evs)-1]
	if last.Type != EventProgress || last.Done != 3 {
		t.Fatalf("event appended after tear is not replayable: %+v", last)
	}
	seen := make(map[uint64]bool)
	for _, ev := range evs {
		if seen[ev.Seq] {
			t.Fatalf("duplicate seq %d after torn-tail repair", ev.Seq)
		}
		seen[ev.Seq] = true
	}
}

// startFaultDaemon is startDaemonOpts with a FaultFS under the spool and a
// fast-probing disk governor.
func startFaultDaemon(t *testing.T, dir string) (ffs *artifact.FaultFS, base string, shutdown func()) {
	t.Helper()
	ffs = artifact.NewFaultFS(nil)
	d, err := New(Options{
		Addr: "127.0.0.1:0",
		Dir:  dir,
		FS:   ffs,
		Disk: DiskPolicy{FailureStreak: 1, ProbeInterval: 50 * time.Millisecond},
		Scheduler: SchedulerOptions{
			JobWorkers:   1,
			SweepWorkers: 2,
			Logf:         t.Logf,
		},
		DrainTimeout: 10 * time.Second,
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	runErr := make(chan error, 1)
	go func() {
		defer wg.Done()
		runErr <- d.Run(ctx)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for d.Addr() == "" {
		if time.Now().After(deadline) {
			cancel()
			t.Fatal("daemon never bound a listener")
		}
		time.Sleep(5 * time.Millisecond)
	}
	return ffs, "http://" + d.Addr(), func() {
		cancel()
		wg.Wait()
		if err := <-runErr; err != nil {
			t.Errorf("daemon Run: %v", err)
		}
	}
}

func httpSubmit(t *testing.T, base string, spec JobSpec) (int, http.Header) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, resp.Header
}

func healthz(t *testing.T, base string) (int, string) {
	t.Helper()
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(body)
}

func awaitHealth(t *testing.T, base string, code int, substr string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		got, body := healthz(t, base)
		if got == code && (substr == "" || bytes.Contains([]byte(body), []byte(substr))) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("healthz never reached %d %q (last: %d %s)", code, substr, got, body)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestDaemonDegradesAndRecoversEndToEnd is the process-level chaos drill:
// a live daemon's disk fills mid-flight, the daemon degrades to read-only
// instead of crashing or failing the in-flight job, sheds new work with
// explicit backpressure, and returns to full verified service once the
// fault clears — the committed result serves intact.
func TestDaemonDegradesAndRecoversEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("full daemon chaos drill skipped in -short")
	}
	ffs, base, shutdown := startFaultDaemon(t, t.TempDir())
	defer shutdown()

	// Phase 1: healthy baseline.
	if code, _ := httpSubmit(t, base, workloadSpec("before", "acme")); code != http.StatusAccepted {
		t.Fatalf("baseline submit: %d", code)
	}
	st := awaitState(t, base, "before", 60*time.Second)
	if st.State != StateDone {
		t.Fatalf("baseline job: %+v", st)
	}

	// Phase 2: the disk fills while a job is in flight.
	if code, _ := httpSubmit(t, base, workloadSpec("inflight", "acme")); code != http.StatusAccepted {
		t.Fatal("in-flight submit rejected")
	}
	ffs.SetWriteBudget(0)

	// New work is shed, not hung: the first submission may surface the raw
	// storage error (500) before the governor has degraded; once degraded,
	// rejections are 503/507 with Retry-After.
	if code, _ := httpSubmit(t, base, workloadSpec("shed-1", "acme")); code < 500 {
		t.Fatalf("submit on full disk: %d, want an error status", code)
	}
	awaitHealth(t, base, http.StatusServiceUnavailable, "degraded")
	code, hdr := httpSubmit(t, base, workloadSpec("shed-2", "acme"))
	if code != http.StatusServiceUnavailable && code != http.StatusInsufficientStorage {
		t.Fatalf("submit while degraded: %d, want 503 or 507", code)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("degraded rejection missing Retry-After")
	}

	// Reads still serve while degraded.
	resp, err := http.Get(base + "/v1/jobs/before/result")
	if err != nil {
		t.Fatal(err)
	}
	baseline, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(baseline) == 0 {
		t.Fatalf("result unreadable while degraded: %d", resp.StatusCode)
	}

	// Phase 3: the fault clears; recovery probes restore full service and
	// the in-flight job — its journal writer parked, not failed — commits.
	ffs.Clear()
	awaitHealth(t, base, http.StatusOK, "")
	st = awaitState(t, base, "inflight", 60*time.Second)
	if st.State != StateDone {
		t.Fatalf("in-flight job after recovery: state %q err %q", st.State, st.Error)
	}
	resp, err = http.Get(base + "/v1/jobs/inflight/result")
	if err != nil {
		t.Fatal(err)
	}
	committed, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(committed) == 0 {
		t.Fatalf("result after recovery: %d (%d bytes)", resp.StatusCode, len(committed))
	}
	if code, _ := httpSubmit(t, base, workloadSpec("after", "acme")); code != http.StatusAccepted {
		t.Fatalf("submit after recovery: %d", code)
	}
	if st := awaitState(t, base, "after", 60*time.Second); st.State != StateDone {
		t.Fatalf("post-recovery job: %+v", st)
	}

	// The governor's scars are visible to operators.
	resp, err = http.Get(base + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	var statusz struct {
		Disk *DiskStatus `json:"disk"`
	}
	jerr := json.NewDecoder(resp.Body).Decode(&statusz)
	resp.Body.Close()
	if jerr != nil || statusz.Disk == nil {
		t.Fatalf("statusz disk section: err=%v disk=%v", jerr, statusz.Disk)
	}
	if statusz.Disk.Mode != DiskOK || statusz.Disk.WriteFailures == 0 || statusz.Disk.Recoveries == 0 {
		t.Fatalf("statusz disk after drill: %+v", statusz.Disk)
	}
}

func mustBacklog(t *testing.T, l *EventLog, job string, after uint64) []Event {
	t.Helper()
	sub, backlog, err := l.Subscribe(job, after)
	if err != nil {
		t.Fatal(err)
	}
	l.Unsubscribe(sub)
	return backlog
}
