package dsed

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

// drainEvents collects everything currently buffered on a subscriber.
func drainEvents(sub *Subscriber) []Event {
	var out []Event
	for {
		select {
		case ev := <-sub.Events():
			out = append(out, ev)
		default:
			return out
		}
	}
}

func TestEventLogEmitAssignsContiguousSeqs(t *testing.T) {
	l := NewEventLog(t.TempDir(), 8)
	for i := 0; i < 5; i++ {
		if err := l.Emit("j1", Event{Type: EventProgress, Done: i, Total: 5}); err != nil {
			t.Fatalf("emit %d: %v", i, err)
		}
	}
	sub, backlog, err := l.Subscribe("j1", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Unsubscribe(sub)
	if len(backlog) != 5 {
		t.Fatalf("backlog = %d events, want 5", len(backlog))
	}
	for i, ev := range backlog {
		if ev.Seq != uint64(i+1) {
			t.Fatalf("backlog[%d].Seq = %d, want %d", i, ev.Seq, i+1)
		}
		if ev.Job != "j1" {
			t.Fatalf("backlog[%d].Job = %q", i, ev.Job)
		}
	}
}

func TestEventLogSeqsSurviveReopen(t *testing.T) {
	dir := t.TempDir()
	l := NewEventLog(dir, 8)
	if err := l.Emit("j1", Event{Type: EventState, State: StateQueued}); err != nil {
		t.Fatal(err)
	}
	if err := l.Emit("j1", Event{Type: EventState, State: StateRunning, Attempt: 1}); err != nil {
		t.Fatal(err)
	}
	l.Close()

	// A fresh EventLog over the same directory — the restart path — must
	// continue the sequence, not restart it.
	l2 := NewEventLog(dir, 8)
	if err := l2.Emit("j1", Event{Type: EventProgress, Done: 1, Total: 2}); err != nil {
		t.Fatal(err)
	}
	_, backlog, err := l2.Subscribe("j1", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(backlog) != 3 {
		t.Fatalf("backlog = %d events, want 3", len(backlog))
	}
	if backlog[2].Seq != 3 || backlog[2].Type != EventProgress {
		t.Fatalf("post-reopen event = %+v, want seq 3 progress", backlog[2])
	}
	if got := l2.Stats().Replayed; got == 0 {
		t.Fatal("reopen should count replayed journal records")
	}
}

func TestEventLogTornTailSalvagesValidPrefix(t *testing.T) {
	dir := t.TempDir()
	l := NewEventLog(dir, 8)
	for i := 0; i < 3; i++ {
		if err := l.Emit("j1", Event{Type: EventProgress, Done: i, Total: 3}); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	// Tear the final record mid-line, the kill -9 signature.
	path := filepath.Join(dir, "j1.jsonl")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-9], 0o644); err != nil {
		t.Fatal(err)
	}

	l2 := NewEventLog(dir, 8)
	_, backlog, err := l2.Subscribe("j1", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(backlog) != 2 {
		t.Fatalf("backlog = %d events after torn tail, want 2", len(backlog))
	}
	// The torn record was fsync-incomplete, hence never published: its seq
	// is reused, and — because replay truncated the damage — the re-emitted
	// record lands on the valid prefix and is fully readable.
	if err := l2.Emit("j1", Event{Type: EventProgress, Done: 2, Total: 3}); err != nil {
		t.Fatal(err)
	}
	_, backlog, err = l2.Subscribe("j1", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(backlog) != 3 || backlog[2].Seq != 3 {
		t.Fatalf("backlog after re-emit = %+v, want 3 contiguous events", backlog)
	}
}

func TestEventLogCorruptInteriorStopsReplay(t *testing.T) {
	dir := t.TempDir()
	l := NewEventLog(dir, 8)
	for i := 0; i < 3; i++ {
		if err := l.Emit("j1", Event{Type: EventProgress, Done: i, Total: 3}); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	path := filepath.Join(dir, "j1.jsonl")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside the first record's payload: its CRC must reject
	// it, and replay must stop at the damage rather than trust the rest.
	data[20] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	l2 := NewEventLog(dir, 8)
	_, backlog, err := l2.Subscribe("j1", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(backlog) != 0 {
		t.Fatalf("backlog = %d events after interior corruption at line 1, want 0", len(backlog))
	}
}

func TestEventLogSubscribeResumeFiltersDelivered(t *testing.T) {
	l := NewEventLog(t.TempDir(), 8)
	for i := 0; i < 6; i++ {
		if err := l.Emit("j1", Event{Type: EventProgress, Done: i, Total: 6}); err != nil {
			t.Fatal(err)
		}
	}
	_, backlog, err := l.Subscribe("j1", 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(backlog) != 2 || backlog[0].Seq != 5 || backlog[1].Seq != 6 {
		t.Fatalf("resume backlog = %+v, want seqs [5 6]", backlog)
	}
	st := l.Stats()
	if st.ResumeHits != 1 {
		t.Fatalf("ResumeHits = %d, want 1", st.ResumeHits)
	}
	// A resume past the end of the stream replays nothing.
	_, backlog, err = l.Subscribe("j1", 99)
	if err != nil {
		t.Fatal(err)
	}
	if len(backlog) != 0 {
		t.Fatalf("past-end resume backlog = %d events, want 0", len(backlog))
	}
}

func TestEventLogEmitNeverBlocksAndEvictsSlowSubscriber(t *testing.T) {
	l := NewEventLog(t.TempDir(), 1) // one-event buffer: laggards evict fast
	slow, _, err := l.Subscribe("j1", 0)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 10; i++ {
			if err := l.Emit("j1", Event{Type: EventProgress, Done: i, Total: 10}); err != nil {
				t.Errorf("emit %d: %v", i, err)
				return
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Emit blocked on a subscriber that never reads")
	}
	select {
	case <-slow.Evicted():
	default:
		t.Fatal("slow subscriber was not evicted")
	}
	st := l.Stats()
	if st.SlowEvictions != 1 {
		t.Fatalf("SlowEvictions = %d, want 1", st.SlowEvictions)
	}
	if st.Subscribers != 0 {
		t.Fatalf("Subscribers = %d after eviction, want 0", st.Subscribers)
	}
	// The evicted consumer resumes from the journal with no loss: its
	// buffered event plus the journal replay covers all ten.
	got := drainEvents(slow)
	var last uint64
	for _, ev := range got {
		last = ev.Seq
	}
	_, backlog, err := l.Subscribe("j1", last)
	if err != nil {
		t.Fatal(err)
	}
	if int(last)+len(backlog) != 10 {
		t.Fatalf("resume after eviction covers %d+%d events, want 10", last, len(backlog))
	}
}

func TestEventLogLiveDeliveryAndTerminalClosesJournal(t *testing.T) {
	dir := t.TempDir()
	l := NewEventLog(dir, 8)
	sub, backlog, err := l.Subscribe("j1", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(backlog) != 0 {
		t.Fatalf("fresh stream backlog = %d, want 0", len(backlog))
	}
	if err := l.Emit("j1", Event{Type: EventState, State: StateQueued}); err != nil {
		t.Fatal(err)
	}
	if err := l.Emit("j1", Event{Type: EventState, State: StateDone}); err != nil {
		t.Fatal(err)
	}
	evs := drainEvents(sub)
	if len(evs) != 2 || !evs[1].Terminal() {
		t.Fatalf("live events = %+v, want queued then terminal done", evs)
	}
	// The journal handle is released on the terminal event; a later
	// subscriber still reads the full history from disk.
	_, backlog, err = l.Subscribe("j1", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(backlog) != 2 {
		t.Fatalf("post-terminal backlog = %d, want 2", len(backlog))
	}
}

func TestDecodeEventRejectsDamage(t *testing.T) {
	ev := Event{Seq: 1, Job: "j1", Type: EventState, State: StateQueued}
	line, err := encodeEvent(&ev)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodeEvent(line[:len(line)-1]); err != nil {
		t.Fatalf("decode round-trip: %v", err)
	}
	bad := append([]byte{}, line...)
	bad[25] ^= 0x01
	if _, err := decodeEvent(bad[:len(bad)-1]); err == nil {
		t.Fatal("decode accepted a corrupted frame")
	}
	if _, err := decodeEvent([]byte(`{"crc":0,"ev":{"seq":0,"type":""}}`)); err == nil {
		t.Fatal("decode accepted an event with no seq/type")
	}
}

// TestSubscribeNeverReplaysAnotherJobsJournal: job "x"'s history is
// events/x.jsonl and nothing else. The spool once also read
// <id>.snap.jsonl as a job's compaction snapshot — which is exactly job
// "x.snap"'s journal, so subscribing to "x" replayed "x.snap"'s events.
func TestSubscribeNeverReplaysAnotherJobsJournal(t *testing.T) {
	q, err := OpenQueue(t.TempDir(), QueueOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	if _, _, err := q.Submit(workloadSpec("x.snap", "")); err != nil {
		t.Fatal(err)
	}
	if backlog := mustBacklog(t, q.events, "x", 0); len(backlog) != 0 {
		t.Fatalf("job x replayed %d events of job x.snap: %+v", len(backlog), backlog)
	}
	if backlog := mustBacklog(t, q.events, "x.snap", 0); len(backlog) != 1 || backlog[0].Job != "x.snap" {
		t.Fatalf("job x.snap backlog: %+v", backlog)
	}
}
