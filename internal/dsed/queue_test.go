package dsed

import (
	"bytes"
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"graphdse/internal/artifact"
)

// workloadSpec builds a minimal valid spec.
func workloadSpec(id, tenant string) JobSpec {
	return JobSpec{
		ID:       id,
		Tenant:   tenant,
		Workload: &WorkloadSpec{Vertices: 256, EdgeFactor: 8, Seed: 7, Repeats: 1},
	}
}

// rotFirstFrame flips one byte inside the first frame of a job's journal,
// the way bit rot while the daemon is down would.
func rotFirstFrame(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// ^0x01 never turns a JSON byte into a newline, so the frame stays
	// terminated and the damage is rot, not a torn append.
	data[bytes.IndexByte(data, '\n')/2] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestJobRecordRoundTripAndCorruption: the record recovery folds from a
// job's journal equals the one Submit returned, and a flipped byte in the
// journal's first frame is detected.
func TestJobRecordRoundTripAndCorruption(t *testing.T) {
	dir := t.TempDir()
	q, err := OpenQueue(dir, QueueOptions{})
	if err != nil {
		t.Fatal(err)
	}
	spec := workloadSpec("j1", "acme")
	spec.Space = smallSpace()
	spec.FailureRate = 0.1
	for _, id := range []string{"j0", "j2"} {
		mustSubmit(t, q, id)
	}
	want, _, err := q.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	q.Close()

	q2, err := OpenQueue(dir, QueueOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := q2.Get("j1")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
	q2.Close()

	// Any flipped byte in the first frame must trip the checksum.
	evs, _ := scanJournal(artifact.OS, q2.journalPath("j1"))
	line, err := encodeEvent(&evs[0])
	if err != nil {
		t.Fatal(err)
	}
	bad := []byte(strings.Replace(string(line), `"acme"`, `"ACME"`, 1))
	if _, err := decodeEvent(bad[:len(bad)-1]); !errors.Is(err, artifact.ErrCorrupt) {
		t.Fatalf("tampered frame: got %v, want ErrCorrupt", err)
	}
}

func TestSpecValidation(t *testing.T) {
	cases := []struct {
		name string
		spec JobSpec
	}{
		{"no source", JobSpec{}},
		{"two sources", JobSpec{Workload: &WorkloadSpec{}, TracePath: "x"}},
		{"huge vertices", JobSpec{Workload: &WorkloadSpec{Vertices: maxSpecVertices + 1}}},
		{"negative timeout", JobSpec{Workload: &WorkloadSpec{}, TimeoutSec: -1}},
		{"failure rate 1", JobSpec{Workload: &WorkloadSpec{}, FailureRate: 1}},
		{"too many retries", JobSpec{Workload: &WorkloadSpec{}, Retries: maxSpecRetries + 1}},
	}
	for _, c := range cases {
		if err := c.spec.Validate(); !errors.Is(err, ErrBadSpec) {
			t.Errorf("%s: got %v, want ErrBadSpec", c.name, err)
		}
	}
	ok := workloadSpec("", "")
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
}

func TestSubmitIdempotentAndConflict(t *testing.T) {
	q, err := OpenQueue(t.TempDir(), QueueOptions{})
	if err != nil {
		t.Fatal(err)
	}
	spec := workloadSpec("stable-id", "")
	rec, existing, err := q.Submit(spec)
	if err != nil || existing {
		t.Fatalf("first submit: existing=%v err=%v", existing, err)
	}
	if rec.State != StateQueued {
		t.Fatalf("state %q, want queued", rec.State)
	}
	// Byte-identical re-submission is the idempotent path.
	rec2, existing, err := q.Submit(spec)
	if err != nil || !existing {
		t.Fatalf("re-submit: existing=%v err=%v", existing, err)
	}
	if rec2.SubmitSeq != rec.SubmitSeq {
		t.Fatal("idempotent re-submit minted a new job")
	}
	// Same ID, different payload: a conflict, never a silent merge.
	changed := spec
	changed.Workload = &WorkloadSpec{Vertices: 512, EdgeFactor: 8, Seed: 7, Repeats: 1}
	if _, _, err := q.Submit(changed); !errors.Is(err, ErrSpecConflict) {
		t.Fatalf("conflicting re-submit: got %v, want ErrSpecConflict", err)
	}
}

func TestAdmissionControl(t *testing.T) {
	q, err := OpenQueue(t.TempDir(), QueueOptions{MaxQueued: 2, TenantCap: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Two distinct tenants fill the queue depth.
	if _, _, err := q.Submit(workloadSpec("a1", "a")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := q.Submit(workloadSpec("b1", "b")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := q.Submit(workloadSpec("c1", "c")); !errors.Is(err, ErrSaturated) {
		t.Fatalf("over-depth submit: got %v, want ErrSaturated", err)
	}

	// Tenant cap binds before queue depth.
	q2, err := OpenQueue(t.TempDir(), QueueOptions{MaxQueued: 64, TenantCap: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := q2.Submit(workloadSpec("t1", "acme")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := q2.Submit(workloadSpec("t2", "acme")); !errors.Is(err, ErrTenantBusy) {
		t.Fatalf("tenant over cap: got %v, want ErrTenantBusy", err)
	}
	if _, _, err := q2.Submit(workloadSpec("o1", "other")); err != nil {
		t.Fatalf("other tenant blocked by acme's cap: %v", err)
	}

	// Draining refuses all intake.
	q2.SetDraining(true)
	if _, _, err := q2.Submit(workloadSpec("d1", "fresh")); !errors.Is(err, ErrDraining) {
		t.Fatalf("draining submit: got %v, want ErrDraining", err)
	}
}

func TestUnsafeIDsRejected(t *testing.T) {
	q, err := OpenQueue(t.TempDir(), QueueOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"../escape", "a/b", ".hidden", strings.Repeat("x", 129), "sp ace"} {
		if _, _, err := q.Submit(workloadSpec(id, "")); !errors.Is(err, ErrBadSpec) {
			t.Errorf("id %q: got %v, want ErrBadSpec", id, err)
		}
	}
}

func TestCancelQueued(t *testing.T) {
	q, err := OpenQueue(t.TempDir(), QueueOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := q.Submit(workloadSpec("c1", "")); err != nil {
		t.Fatal(err)
	}
	if running, err := q.CancelQueued("c1"); err != nil || running {
		t.Fatalf("cancel queued: running=%v err=%v", running, err)
	}
	rec, err := q.Get("c1")
	if err != nil || rec.State != StateCancelled {
		t.Fatalf("after cancel: %+v err=%v", rec, err)
	}
	// Terminal jobs are not cancellable again.
	if _, err := q.CancelQueued("c1"); !errors.Is(err, ErrNotCancellable) {
		t.Fatalf("double cancel: got %v, want ErrNotCancellable", err)
	}
	if _, err := q.CancelQueued("ghost"); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("unknown cancel: got %v, want ErrUnknownJob", err)
	}
}

// TestRecoveryRequeuesAndResumes is the queue-level crash drill: re-open the
// spool and check each state is recovered per the protocol — queued jobs
// re-enter FIFO, running jobs resume, terminal jobs stay put.
func TestRecoveryRequeuesAndResumes(t *testing.T) {
	dir := t.TempDir()
	q, err := OpenQueue(dir, QueueOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"first", "second", "third"} {
		if _, _, err := q.Submit(workloadSpec(id, "")); err != nil {
			t.Fatal(err)
		}
	}
	// "first" transitions to running; the crash (dropping q) leaves it so on
	// disk with no result.
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	rec, err := q.Next(ctx)
	if err != nil || rec.Spec.ID != "first" {
		t.Fatalf("Next: %+v err=%v", rec, err)
	}
	// "third" completes before the crash.
	if _, err := q.Next(ctx); err != nil { // second → running
		t.Fatal(err)
	}
	if _, err := q.Next(ctx); err != nil { // third → running
		t.Fatal(err)
	}
	if err := q.Finalize("third", StateDone, "", 5, 0); err != nil {
		t.Fatal(err)
	}

	q2, err := OpenQueue(dir, QueueOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rep := q2.Recovery()
	if rep.Terminal != 1 || rep.Resumed != 2 || rep.Requeued != 0 || rep.Corrupt != 0 {
		t.Fatalf("recovery report: %+v", rep)
	}
	// FIFO by submission order survives the restart.
	a, err := q2.Next(ctx)
	if err != nil || a.Spec.ID != "first" {
		t.Fatalf("recovered order: got %q, want first", a.Spec.ID)
	}
	if a.Attempt != 2 {
		t.Fatalf("resume attempt %d, want 2", a.Attempt)
	}
	b, _ := q2.Next(ctx)
	if b.Spec.ID != "second" {
		t.Fatalf("recovered order: got %q, want second", b.Spec.ID)
	}
	done, _ := q2.Get("third")
	if done.State != StateDone || done.Survivors != 5 {
		t.Fatalf("terminal job disturbed by recovery: %+v", done)
	}
}

// TestRecoveryAdoptsSealedResult covers the crash window between result
// seal and terminal event: recovery must finalize the job as done without
// re-running anything.
func TestRecoveryAdoptsSealedResult(t *testing.T) {
	dir := t.TempDir()
	q, err := OpenQueue(dir, QueueOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := q.Submit(workloadSpec("adopt-me", "")); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if _, err := q.Next(ctx); err != nil {
		t.Fatal(err)
	}
	// Simulate the scheduler having committed the sealed result just before
	// the crash.
	if err := artifact.WriteFileAtomic(q.resultPath("adopt-me"), 0o644, func(w io.Writer) error {
		_, werr := io.WriteString(w, `{"id":"adopt-me","total":1,"survivors":1,"records":[],"sealed":true}`+"\n")
		return werr
	}); err != nil {
		t.Fatal(err)
	}

	q2, err := OpenQueue(dir, QueueOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep := q2.Recovery(); rep.Adopted != 1 || rep.Resumed != 0 {
		t.Fatalf("recovery report: %+v", rep)
	}
	rec, err := q2.Get("adopt-me")
	if err != nil || rec.State != StateDone {
		t.Fatalf("adopted job: %+v err=%v", rec, err)
	}
	// An unsealed (torn) result must NOT be adopted.
	dir2 := t.TempDir()
	q3, err := OpenQueue(dir2, QueueOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := q3.Submit(workloadSpec("torn", "")); err != nil {
		t.Fatal(err)
	}
	if _, err := q3.Next(ctx); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(q3.resultPath("torn"), []byte(`{"id":"torn","sea`), 0o644); err != nil {
		t.Fatal(err)
	}
	q4, err := OpenQueue(dir2, QueueOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep := q4.Recovery(); rep.Adopted != 0 || rep.Resumed != 1 {
		t.Fatalf("torn result adopted: %+v", rep)
	}
}

// TestRecoverySetsAsideCorruptRecords: a journal whose first frame fails
// its checksum is renamed aside, reported, and never re-animated.
func TestRecoverySetsAsideCorruptRecords(t *testing.T) {
	dir := t.TempDir()
	q, err := OpenQueue(dir, QueueOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := q.Submit(workloadSpec("healthy", "")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := q.Submit(workloadSpec("rotten", "")); err != nil {
		t.Fatal(err)
	}
	q.Close()
	rotFirstFrame(t, q.journalPath("rotten"))

	q2, err := OpenQueue(dir, QueueOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rep := q2.Recovery()
	if rep.Corrupt != 1 || rep.Requeued != 1 {
		t.Fatalf("recovery report: %+v", rep)
	}
	if len(rep.CorruptFiles) != 1 || !strings.HasSuffix(rep.CorruptFiles[0], ".corrupt") {
		t.Fatalf("corrupt file not set aside: %v", rep.CorruptFiles)
	}
	if _, err := os.Stat(rep.CorruptFiles[0]); err != nil {
		t.Fatalf("set-aside file missing: %v", err)
	}
	if _, err := q2.Get("rotten"); !errors.Is(err, ErrUnknownJob) {
		t.Fatal("corrupt job was re-animated")
	}
	// The rest of the spool is unaffected.
	if _, err := q2.Get("healthy"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, eventsDir, "rotten.jsonl")); !os.IsNotExist(err) {
		t.Fatal("corrupt journal left in place")
	}
}

// TestRequeuePreservesAttempt: the drain path returns a running job to
// queued without burning an attempt and keeps it durable.
func TestRequeuePreservesAttempt(t *testing.T) {
	dir := t.TempDir()
	q, err := OpenQueue(dir, QueueOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := q.Submit(workloadSpec("r1", "")); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	rec, err := q.Next(ctx)
	if err != nil || rec.Attempt != 1 {
		t.Fatalf("Next: %+v err=%v", rec, err)
	}
	if err := q.Requeue("r1"); err != nil {
		t.Fatal(err)
	}
	onDisk := foldJournal("r1", q.events.History("r1"))
	if onDisk == nil || onDisk.State != StateQueued || onDisk.Attempt != 1 {
		t.Fatalf("requeue not durable: %+v", onDisk)
	}
	rec2, err := q.Next(ctx)
	if err != nil || rec2.Spec.ID != "r1" || rec2.Attempt != 2 {
		t.Fatalf("requeued job: %+v err=%v", rec2, err)
	}
}

// TestOpenRefusesRetiredSpoolLayout: a spool whose job records live in
// jobs/ cannot be folded from its journals; opening it must fail rather
// than quarantine every journal.
func TestOpenRefusesRetiredSpoolLayout(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "jobs"), 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenQueue(dir, QueueOptions{}); err == nil || !strings.Contains(err.Error(), "jobs/") {
		t.Fatalf("OpenQueue over a jobs/ spool: %v, want a layout error", err)
	}
}
