package dsed

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"graphdse/internal/dse"
)

// frameJobSpec is the job the crash-at-every-frame drill runs: one
// CPU × controller × channels cell (13 points) at the paper's crash rate,
// with a failure seed under which some points fail, so the journal holds
// failure events as well as records.
func frameJobSpec() JobSpec {
	spec := workloadSpec("frames", "")
	spec.Space = &dse.SpaceParams{
		CPUFreqsMHz:  []float64{2000},
		CtrlFreqsMHz: []float64{400},
		Channels:     []int{2},
	}
	spec.Workers = 1
	spec.FailureRate = dse.PaperFailureRate
	spec.FailureSeed = 5
	return spec
}

// runQueued drives every queued job of q to a terminal state in-process,
// one at a time, the way a one-worker scheduler fleet would.
func runQueued(t *testing.T, q *Queue, cache *TraceCache) {
	t.Helper()
	s := NewScheduler(q, cache, nil, SchedulerOptions{JobWorkers: 1, SweepWorkers: 1})
	for {
		if queued, _ := q.Depth(); queued == 0 {
			return
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		rec, err := q.Next(ctx)
		cancel()
		if err != nil {
			t.Fatal(err)
		}
		s.runJob(context.Background(), rec)
	}
}

// jobResult returns done job id's report through Queue.Result.
func jobResult(t *testing.T, q *Queue, id string) []byte {
	t.Helper()
	rec, err := q.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	data, err := q.Result(rec)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestRecoveryAtEveryFrame crashes a job at every frame boundary of its
// journal — and again with a torn half-frame after each boundary — by
// reopening a spool holding just that prefix, then lets the job finish.
// Every recovery must be classified as DESIGN.md §10 says, commit the
// reference run's result bytes (both as cached at commit and as re-derived
// from the journal after a restart), journal each point record exactly
// once, and keep the event seqs contiguous.
func TestRecoveryAtEveryFrame(t *testing.T) {
	cache := NewTraceCache(1)
	spec := frameJobSpec()
	points := dse.EnumerateSpace(*spec.Space)

	// The reference: one uninterrupted run.
	refDir := t.TempDir()
	ref, err := OpenQueue(refDir, QueueOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ref.Submit(spec); err != nil {
		t.Fatal(err)
	}
	runQueued(t, ref, cache)
	result := jobResult(t, ref, spec.ID)
	ref.Close()
	journal, err := os.ReadFile(ref.journalPath(spec.ID))
	if err != nil {
		t.Fatal(err)
	}
	frames, _ := scanJournalBytes(journal)
	bounds := []int{0} // byte offset after each frame, 0 first
	for off := 0; off < len(journal); {
		off += bytes.IndexByte(journal[off:], '\n') + 1
		bounds = append(bounds, off)
	}
	lastPoint, failures := -1, 0
	for i, ev := range frames {
		switch ev.Type {
		case EventProgress:
			if len(ev.Record) > 0 {
				lastPoint = i
			}
		case EventFailure:
			failures++
		}
	}
	last := frames[len(frames)-1]
	if last.State != StateDone || last.TraceEvents == 0 || lastPoint != len(frames)-2 || failures == 0 {
		t.Fatalf("reference journal: %d frames, last point at %d, %d failures, ends %+v",
			len(frames), lastPoint, failures, last)
	}

	for k := 0; k < len(bounds); k++ {
		for _, torn := range []bool{false, true} {
			if torn && k == len(frames) {
				continue // nothing follows the terminal frame
			}
			// The "sealed=false" suffix dates from spools that could also
			// hold a sealed result file; none does now, and the names stay
			// comparable across runs of older trees.
			name := fmt.Sprintf("frame%02d/torn=%v/sealed=false", k, torn)
			t.Run(name, func(t *testing.T) {
				prefix := journal[:bounds[k]]
				if torn {
					prefix = journal[:bounds[k]+(bounds[k+1]-bounds[k])/2]
				}
				recoverPrefix(t, cache, spec, points, prefix, frames[:k], result)
			})
		}
	}
}

// recoverPrefix opens a spool whose journal holds prefix — the frames of
// durable, possibly followed by a torn one —, checks the recovery
// classification, finishes the job, and checks what it committed and
// journaled.
func recoverPrefix(t *testing.T, cache *TraceCache, spec JobSpec, points []dse.DesignPoint, prefix []byte, durable []Event, result []byte) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, eventsDir), 0o755); err != nil {
		t.Fatal(err)
	}
	journalPath := filepath.Join(dir, eventsDir, spec.ID+".jsonl")
	if err := os.WriteFile(journalPath, prefix, 0o644); err != nil {
		t.Fatal(err)
	}
	q, err := OpenQueue(dir, QueueOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()

	// The recovery table (DESIGN.md §10), by the last durable state.
	var want RecoveryReport
	lastState := JobState("")
	for _, ev := range durable {
		if ev.Type == EventState {
			lastState = ev.State
		}
	}
	switch {
	case len(durable) == 0: // never acknowledged: no job
	case lastState.Terminal():
		want.Terminal = 1
	case lastState == StateQueued:
		want.Requeued = 1
	default:
		want.Resumed = 1
	}
	if got := q.Recovery(); !reflect.DeepEqual(*got, want) {
		t.Fatalf("recovery report %+v, want %+v", *got, want)
	}
	if len(durable) == 0 {
		if q.Known(spec.ID) {
			t.Fatal("an unacknowledged submission became a job")
		}
		if _, err := os.Stat(journalPath); !os.IsNotExist(err) {
			t.Fatalf("unacknowledged journal left behind: %v", err)
		}
		return
	}
	if want.Resumed == 1 {
		// Exactly one queued event is appended to the durable frames.
		evs := q.events.History(spec.ID)
		if len(evs) != len(durable)+1 || evs[len(durable)].State != StateQueued {
			t.Fatalf("resumed job journal: %d events after %d durable ones, want one queued event", len(evs), len(durable))
		}
	}

	runQueued(t, q, cache)

	if rec, err := q.Get(spec.ID); err != nil || rec.State != StateDone {
		t.Fatalf("recovered job: %+v err=%v", rec, err)
	}
	if got := jobResult(t, q, spec.ID); !bytes.Equal(got, result) {
		t.Fatalf("committed result differs from the uninterrupted run's:\n%s\nvs\n%s", got, result)
	}
	checkPointJournal(t, q.events.History(spec.ID), points)

	// After a restart nothing is cached: the result is re-derived from the
	// journal, byte for byte.
	q.Close()
	q2, err := OpenQueue(dir, QueueOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer q2.Close()
	if got := jobResult(t, q2, spec.ID); !bytes.Equal(got, result) {
		t.Fatalf("result re-derived from the journal differs from the uninterrupted run's:\n%s\nvs\n%s", got, result)
	}
}

// checkPointJournal checks a done job's journal history: contiguous seqs
// from 1, exactly one terminal event and it last, every point's record
// exactly once, and the records' done counts running 1, 2, … in order.
func checkPointJournal(t *testing.T, evs []Event, points []dse.DesignPoint) {
	t.Helper()
	seen := make(map[string]int)
	terminals, done := 0, 0
	for i, ev := range evs {
		if ev.Seq != uint64(i+1) {
			t.Fatalf("event %d carries seq %d: seqs not contiguous", i, ev.Seq)
		}
		switch {
		case ev.Type == EventProgress && len(ev.Record) > 0:
			var rec struct {
				ID string `json:"id"`
			}
			if err := json.Unmarshal(ev.Record, &rec); err != nil {
				t.Fatal(err)
			}
			seen[rec.ID]++
			if done++; ev.Done != done {
				t.Fatalf("point record %d carries done %d: done counts out of order", done, ev.Done)
			}
		case ev.Terminal():
			terminals++
		}
	}
	if terminals != 1 || !evs[len(evs)-1].Terminal() {
		t.Fatalf("journal holds %d terminal events (last %+v), want one, last", terminals, evs[len(evs)-1])
	}
	if len(seen) != len(points) {
		t.Fatalf("journal holds records for %d of %d points", len(seen), len(points))
	}
	for id, n := range seen {
		if n != 1 {
			t.Fatalf("point %s journaled %d times", id, n)
		}
	}
}
