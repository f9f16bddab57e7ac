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

	"graphdse/internal/artifact"
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

// TestRecoveryAtEveryFrame crashes a job at every frame boundary of its
// journal — and again with a torn half-frame after each boundary — by
// reopening a spool holding just that prefix, then lets the job finish.
// Where the crash could have left the sealed result either written or not,
// both spools are tried. Every recovery must be classified as DESIGN.md §10
// says, seal the reference run's bytes, journal each point record exactly
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
	ref.Close()
	journal, err := os.ReadFile(ref.journalPath(spec.ID))
	if err != nil {
		t.Fatal(err)
	}
	result, err := os.ReadFile(ref.resultPath(spec.ID))
	if err != nil {
		t.Fatal(err)
	}
	frames, _ := scanJournalBytes(journal)
	bounds := []int{0} // byte offset after each frame, 0 first
	for off := 0; off < len(journal); {
		off += bytes.IndexByte(journal[off:], '\n') + 1
		bounds = append(bounds, off)
	}
	sealFrame, lastPoint, failures := -1, -1, 0
	for i, ev := range frames {
		switch ev.Type {
		case EventSeal:
			sealFrame = i
		case EventProgress:
			if len(ev.Record) > 0 {
				lastPoint = i
			}
		case EventFailure:
			failures++
		}
	}
	last := frames[len(frames)-1]
	if last.State != StateDone || sealFrame != len(frames)-2 || lastPoint != sealFrame-1 || failures == 0 {
		t.Fatalf("reference journal: %d frames, seal at %d, last point at %d, %d failures, ends %+v",
			len(frames), sealFrame, lastPoint, failures, last)
	}

	for k := 0; k < len(bounds); k++ {
		for _, torn := range []bool{false, true} {
			if torn && k == len(frames) {
				continue // nothing follows the terminal frame
			}
			// The result is sealed after the last point frame and before
			// the seal frame is appended: a crash in between may have left
			// it either way; after the seal frame it must be there.
			must := (torn && k >= sealFrame) || (!torn && k > sealFrame)
			may := must || (!torn && k > lastPoint)
			for _, sealed := range []bool{false, true} {
				if (sealed && !may) || (!sealed && must) {
					continue
				}
				name := fmt.Sprintf("frame%02d/torn=%v/sealed=%v", k, torn, sealed)
				t.Run(name, func(t *testing.T) {
					prefix := journal[:bounds[k]]
					if torn {
						prefix = journal[:bounds[k]+(bounds[k+1]-bounds[k])/2]
					}
					recoverPrefix(t, cache, spec, points, prefix, frames[:k], sealed, result)
				})
			}
		}
	}
}

// recoverPrefix opens a spool whose journal holds prefix — the frames of
// durable, possibly followed by a torn one — and, when sealed, the
// reference result; checks the recovery classification; finishes the job;
// and checks what it sealed and journaled.
func recoverPrefix(t *testing.T, cache *TraceCache, spec JobSpec, points []dse.DesignPoint, prefix []byte, durable []Event, sealed bool, result []byte) {
	dir := t.TempDir()
	for _, sub := range []string{eventsDir, resultsDir} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	journalPath := filepath.Join(dir, eventsDir, spec.ID+".jsonl")
	if err := os.WriteFile(journalPath, prefix, 0o644); err != nil {
		t.Fatal(err)
	}
	if sealed {
		if err := os.WriteFile(filepath.Join(dir, resultsDir, spec.ID+".json"), result, 0o644); err != nil {
			t.Fatal(err)
		}
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
	case sealed:
		want.Adopted = 1
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
	got, err := os.ReadFile(q.resultPath(spec.ID))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, result) {
		t.Fatalf("sealed result differs from the uninterrupted run's:\n%s\nvs\n%s", got, result)
	}
	evs, _ := scanJournal(artifact.OS, journalPath)
	seen := make(map[string]int)
	seals, terminals := 0, 0
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
		case ev.Type == EventSeal:
			seals++
		case ev.Terminal():
			terminals++
		}
	}
	if seals != 1 || terminals != 1 || !evs[len(evs)-1].Terminal() {
		t.Fatalf("journal holds %d seals and %d terminal events (last %+v), want one each, terminal last", seals, terminals, evs[len(evs)-1])
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
