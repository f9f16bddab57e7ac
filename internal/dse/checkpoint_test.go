package dse

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"graphdse/internal/memsim"
)

// canonicalSurvivors renders the surviving records in their checkpoint
// encoding, sorted by content — the byte-level identity used to prove that
// resumed sweeps equal uninterrupted ones.
func canonicalSurvivors(t *testing.T, records []RunRecord) []string {
	t.Helper()
	var lines []string
	for _, r := range Survivors(records) {
		b, err := EncodeRecord(r)
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, string(b))
	}
	sort.Strings(lines)
	return lines
}

func TestCheckpointRoundTrip(t *testing.T) {
	events := smallTrace(t)
	points := EnumerateSpace(tinySpace())
	path := filepath.Join(t.TempDir(), "sweep.ckpt")

	// Resume against a missing checkpoint is a fresh start, not an error.
	records, err := sweepEvents(events, points, SweepOptions{
		Faults: PaperFaults(0.25, 3), CheckpointPath: path, Resume: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	loaded, rep, err := LoadCheckpoint(path, points, false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Skipped != 0 {
		t.Fatalf("clean checkpoint skipped %d lines", rep.Skipped)
	}
	if len(loaded) != len(points) {
		t.Fatalf("checkpoint holds %d records, want %d", len(loaded), len(points))
	}
	for _, r := range records {
		lr, ok := loaded[r.Point.ID()]
		if !ok {
			t.Fatalf("point %s missing from checkpoint", r.Point.ID())
		}
		if lr.Failed != r.Failed || lr.Attempts != r.Attempts || lr.FaultClass != r.FaultClass {
			t.Fatalf("point %s: loaded %+v does not match live record", r.Point.ID(), lr)
		}
		if !r.Failed {
			a, err := EncodeRecord(r)
			if err != nil {
				t.Fatal(err)
			}
			lr.FromCheckpoint = false
			b, err := EncodeRecord(lr)
			if err != nil {
				t.Fatal(err)
			}
			if string(a) != string(b) {
				t.Fatalf("point %s: round-trip not byte-identical:\n%s\n%s", r.Point.ID(), a, b)
			}
		}
	}
}

func TestCheckpointCorruptLineSkippedAndRerun(t *testing.T) {
	events := smallTrace(t)
	points := EnumerateSpace(tinySpace())
	dir := t.TempDir()
	path := filepath.Join(dir, "sweep.ckpt")

	ref, err := sweepEvents(events, points, SweepOptions{CheckpointPath: path})
	if err != nil {
		t.Fatal(err)
	}
	want := canonicalSurvivors(t, ref)

	// Corrupt one survivor line mid-write (a truncated append).
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != len(points) {
		t.Fatalf("checkpoint has %d lines, want %d", len(lines), len(points))
	}
	lines[3] = lines[3][:len(lines[3])/2]
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	loaded, rep, err := LoadCheckpoint(path, points, false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Skipped != 1 {
		t.Fatalf("skipped = %d corrupt lines, want 1", rep.Skipped)
	}
	if len(loaded) != len(points)-1 {
		t.Fatalf("loaded %d records, want %d", len(loaded), len(points)-1)
	}

	// Resume re-runs only the corrupted point and converges to the
	// uninterrupted result.
	var reran atomic.Int64
	testHookPointStart = func(DesignPoint) { reran.Add(1) }
	defer func() { testHookPointStart = nil }()
	resumed, err := sweepEvents(events, points, SweepOptions{CheckpointPath: path, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if reran.Load() != 1 {
		t.Fatalf("resume re-ran %d points, want 1", reran.Load())
	}
	got := canonicalSurvivors(t, resumed)
	if len(got) != len(want) {
		t.Fatalf("resumed survivors = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d differs after corrupt-line resume:\n%s\n%s", i, got[i], want[i])
		}
	}
}

// TestCheckpointKillResumeByteIdentical is the acceptance test: a sweep
// killed mid-flight and resumed from its checkpoint must produce surviving
// records byte-identical to an uninterrupted run.
func TestCheckpointKillResumeByteIdentical(t *testing.T) {
	events := smallTrace(t)
	points := EnumerateSpace(smallSpace())
	inj := PaperFaults(0.2, 3)
	dir := t.TempDir()

	refPath := filepath.Join(dir, "ref.ckpt")
	ref, err := sweepEvents(events, points, SweepOptions{Faults: inj, CheckpointPath: refPath})
	if err != nil {
		t.Fatal(err)
	}
	want := canonicalSurvivors(t, ref)

	// "Kill" a second sweep after 8 completed points.
	path := filepath.Join(dir, "sweep.ckpt")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var done atomic.Int64
	testHookPointDone = func(DesignPoint) {
		if done.Add(1) == 8 {
			cancel()
		}
	}
	pt, err := memsim.Prepare(events)
	if err != nil {
		t.Fatal(err)
	}
	partial, err := SweepPreparedContext(ctx, pt, points, SweepOptions{
		Faults: inj, CheckpointPath: path, Workers: 2,
	})
	testHookPointDone = nil
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("killed sweep returned %v, want context.Canceled", err)
	}
	skippedPoints := 0
	for _, r := range partial {
		if r.Skipped {
			skippedPoints++
		}
	}
	if skippedPoints == 0 {
		t.Fatal("kill left no work behind; cancel earlier")
	}

	// Resume from the checkpoint and complete the sweep.
	resumed, err := sweepEvents(events, points, SweepOptions{
		Faults: inj, CheckpointPath: path, Resume: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	adopted := 0
	for _, r := range resumed {
		if r.FromCheckpoint {
			adopted++
		}
	}
	if adopted == 0 {
		t.Fatal("resume adopted nothing from the checkpoint")
	}
	got := canonicalSurvivors(t, resumed)
	if len(got) != len(want) {
		t.Fatalf("resumed survivors = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d not byte-identical after kill+resume:\n got %s\nwant %s", i, got[i], want[i])
		}
	}
}

// TestCheckpointTornTailFromConcurrentWriter models a resume racing another
// writer's in-progress append: the final JSONL line is a prefix of a valid
// record with no newline. Salvage must adopt every complete line, flag and
// skip the torn tail in BOTH permissive and strict modes (a torn tail is
// normal operation under concurrency, not corruption), and once the writer
// finishes the line a reload must adopt the now-complete record.
func TestCheckpointTornTailFromConcurrentWriter(t *testing.T) {
	events := smallTrace(t)
	points := EnumerateSpace(tinySpace())
	dir := t.TempDir()
	path := filepath.Join(dir, "sweep.ckpt")

	ref, err := sweepEvents(events, points, SweepOptions{CheckpointPath: path})
	if err != nil {
		t.Fatal(err)
	}
	want := canonicalSurvivors(t, ref)

	// Split the final line mid-record: head stays on disk, tail is what the
	// concurrent writer has not flushed yet.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	last := lines[len(lines)-1]
	head := strings.Join(lines[:len(lines)-1], "\n") + "\n" + last[:len(last)/2]
	tail := last[len(last)/2:] + "\n"
	if err := os.WriteFile(path, []byte(head), 0o644); err != nil {
		t.Fatal(err)
	}

	for _, strict := range []bool{false, true} {
		loaded, rep, err := LoadCheckpoint(path, points, strict)
		if err != nil {
			t.Fatalf("strict=%v: torn tail must not fail the load: %v", strict, err)
		}
		if !rep.TornTail || rep.Skipped != 1 || int(rep.Loaded) != len(points)-1 {
			t.Fatalf("strict=%v: report %+v, want torn tail + 1 skip + %d loaded", strict, rep, len(points)-1)
		}
		if len(loaded) != len(points)-1 {
			t.Fatalf("strict=%v: adopted %d records, want %d", strict, len(loaded), len(points)-1)
		}
	}

	// Resume while the tail is still torn: exactly the one unfinished point
	// re-runs, and the result matches the uninterrupted sweep byte for byte.
	var reran atomic.Int64
	testHookPointStart = func(DesignPoint) { reran.Add(1) }
	resumed, err := sweepEvents(events, points, SweepOptions{CheckpointPath: path, Resume: true})
	testHookPointStart = nil
	if err != nil {
		t.Fatal(err)
	}
	if reran.Load() != 1 {
		t.Fatalf("torn-tail resume re-ran %d points, want 1", reran.Load())
	}
	got := canonicalSurvivors(t, resumed)
	if len(got) != len(want) {
		t.Fatalf("resumed survivors = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d differs after torn-tail resume:\n%s\n%s", i, got[i], want[i])
		}
	}

	// The writer finishes its append (rebuilding the pre-resume torn state
	// first — the resume above rewrote the tail itself): the completed final
	// line must now load cleanly.
	if err := os.WriteFile(path, []byte(head+tail), 0o644); err != nil {
		t.Fatal(err)
	}
	loaded, rep, err := LoadCheckpoint(path, points, true)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() || len(loaded) != len(points) {
		t.Fatalf("completed tail: report %+v, loaded %d, want clean full load", rep, len(loaded))
	}
}

// TestDecodeCanonicalRecordsRoundTrip pins the read side of the daemon's
// query endpoints: the canonical lines a sealed report carries decode back
// into RunRecords that re-encode byte-identically, failed records
// included, and damaged or out-of-space lines are rejected outright rather
// than salvaged.
func TestDecodeCanonicalRecordsRoundTrip(t *testing.T) {
	events := smallTrace(t)
	points := EnumerateSpace(tinySpace())
	records, err := sweepEvents(events, points, SweepOptions{Faults: PaperFaults(0.25, 3)})
	if err != nil {
		t.Fatal(err)
	}
	var failed bool
	for _, r := range records {
		failed = failed || r.Failed
	}
	if !failed || len(Survivors(records)) == 0 {
		t.Fatalf("sweep produced no mix of failures and survivors (%d records)", len(records))
	}

	lines, err := CanonicalRecords(records)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeCanonicalRecords(lines, points)
	if err != nil {
		t.Fatal(err)
	}
	if len(decoded) != len(lines) {
		t.Fatalf("decoded %d records from %d lines", len(decoded), len(lines))
	}
	for i := range decoded {
		decoded[i].FromCheckpoint = false
	}
	again, err := CanonicalRecords(decoded)
	if err != nil {
		t.Fatal(err)
	}
	for i := range lines {
		if string(again[i]) != string(lines[i]) {
			t.Fatalf("line %d not byte-identical after decode:\n%s\n%s", i, lines[i], again[i])
		}
	}

	// A line naming a point outside the design space is corruption, not a
	// skip: the seal asserts completeness.
	if _, err := DecodeCanonicalRecords(lines, nil); err == nil {
		t.Fatal("decode accepted records against an empty design space")
	}
	bad := append([]json.RawMessage(nil), lines...)
	bad[0] = json.RawMessage(`{"id":""}`)
	if _, err := DecodeCanonicalRecords(bad, points); err == nil {
		t.Fatal("decode accepted a line with no point id")
	}
	bad[0] = json.RawMessage(`{`)
	if _, err := DecodeCanonicalRecords(bad, points); err == nil {
		t.Fatal("decode accepted malformed JSON")
	}
}
