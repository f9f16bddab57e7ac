package dse

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"graphdse/internal/artifact"
)

// writeCheckpointLines runs a clean checkpointed sweep and returns its lines
// plus the design space, the raw material for damage scenarios.
func writeCheckpointLines(t *testing.T) ([]string, []DesignPoint, string) {
	t.Helper()
	events := smallTrace(t)
	points := EnumerateSpace(tinySpace())
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	if _, err := sweepEvents(events, points, SweepOptions{CheckpointPath: path}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return strings.Split(strings.TrimSpace(string(data)), "\n"), points, path
}

// TestCheckpointTornTailTolerated is the satellite acceptance case: a crash
// mid-append leaves a final line without its newline (possibly truncated);
// both permissive and strict loads must keep every complete record and flag
// the torn tail instead of failing.
func TestCheckpointTornTailTolerated(t *testing.T) {
	lines, points, path := writeCheckpointLines(t)
	n := len(lines)

	// Case 1: final line is complete but missing its newline.
	body := strings.Join(lines, "\n") // no trailing \n
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, strict := range []bool{false, true} {
		loaded, rep, err := LoadCheckpoint(path, points, strict)
		if err != nil {
			t.Fatalf("strict=%v: complete-but-unterminated tail rejected: %v", strict, err)
		}
		if len(loaded) != n || rep.Loaded != int64(n) || rep.Skipped != 0 {
			t.Fatalf("strict=%v: loaded %d/%d, skipped %d", strict, len(loaded), n, rep.Skipped)
		}
		if !rep.TornTail || rep.Clean() {
			t.Fatalf("strict=%v: torn tail not flagged: %+v", strict, rep)
		}
	}

	// Case 2: final line is truncated mid-record (the classic kill -9 tear).
	torn := strings.Join(lines[:n-1], "\n") + "\n" + lines[n-1][:len(lines[n-1])/2]
	if err := os.WriteFile(path, []byte(torn), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, strict := range []bool{false, true} {
		loaded, rep, err := LoadCheckpoint(path, points, strict)
		if err != nil {
			t.Fatalf("strict=%v: torn final line must be tolerated, got %v", strict, err)
		}
		if len(loaded) != n-1 || rep.Skipped != 1 || !rep.TornTail {
			t.Fatalf("strict=%v: loaded=%d skipped=%d torn=%v, want %d/1/true",
				strict, len(loaded), rep.Skipped, rep.TornTail, n-1)
		}
		if len(rep.Sample) == 0 || !strings.Contains(rep.Sample[0], "torn final line") {
			t.Fatalf("strict=%v: salvage note missing: %v", strict, rep.Sample)
		}
		if !strings.Contains(rep.String(), "torn final line") {
			t.Fatalf("strict=%v: report string lacks torn-tail note: %s", strict, rep)
		}
	}
}

// TestCheckpointStrictInteriorCorruption: strict mode fails on a malformed
// interior line that permissive mode skips.
func TestCheckpointStrictInteriorCorruption(t *testing.T) {
	lines, points, path := writeCheckpointLines(t)
	lines[1] = `{"id":"not-a-real-point"}`
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	loaded, rep, err := LoadCheckpoint(path, points, false)
	if err != nil {
		t.Fatalf("permissive load failed: %v", err)
	}
	if len(loaded) != len(lines)-1 || rep.Skipped != 1 || rep.TornTail {
		t.Fatalf("permissive: loaded=%d skipped=%d torn=%v", len(loaded), rep.Skipped, rep.TornTail)
	}

	_, rep, err = LoadCheckpoint(path, points, true)
	if err == nil {
		t.Fatal("strict load accepted malformed interior line")
	}
	if !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("strict error does not name the line: %v", err)
	}
	if rep.Skipped != 1 {
		t.Fatalf("strict report skipped=%d, want 1", rep.Skipped)
	}
}

// TestSweepResumeSalvageCallback: a resumed sweep over a damaged checkpoint
// reports the salvage through OnCheckpointSalvage and still converges.
func TestSweepResumeSalvageCallback(t *testing.T) {
	lines, points, path := writeCheckpointLines(t)
	// Tear the tail so resume has something to report.
	torn := strings.Join(lines[:len(lines)-1], "\n") + "\n" + lines[len(lines)-1][:3]
	if err := os.WriteFile(path, []byte(torn), 0o644); err != nil {
		t.Fatal(err)
	}
	var got *CheckpointReport
	records, err := sweepEvents(smallTrace(t), points, SweepOptions{
		CheckpointPath:      path,
		Resume:              true,
		OnCheckpointSalvage: func(r *CheckpointReport) { got = r },
	})
	if err != nil {
		t.Fatal(err)
	}
	if got == nil {
		t.Fatal("salvage callback never fired")
	}
	if !got.TornTail || got.Skipped != 1 {
		t.Fatalf("callback report %+v, want torn tail with 1 skip", got)
	}
	if len(records) != len(points) {
		t.Fatalf("resumed sweep produced %d records, want %d", len(records), len(points))
	}
}

// TestCSVCheckedRoundTripAndCorruption: the checksummed dataset container
// round-trips, rejects every single-byte flip and every truncation, and the
// plain-CSV path still works through the same auto-detecting reader.
func TestCSVCheckedRoundTripAndCorruption(t *testing.T) {
	events := smallTrace(t)
	records, err := sweepEvents(events, EnumerateSpace(tinySpace()), SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := BuildDataset(records)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCSVChecked(&buf, ds); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if !bytes.HasPrefix(data, artifact.Magic[:]) {
		t.Fatal("WriteCSVChecked did not emit the container magic")
	}
	got, err := ReadCSV(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != ds.Len() {
		t.Fatalf("checked round trip rows = %d, want %d", got.Len(), ds.Len())
	}
	for i := range data {
		corrupted := append([]byte(nil), data...)
		corrupted[i] ^= 0x01
		if _, err := ReadCSV(bytes.NewReader(corrupted)); err == nil {
			t.Fatalf("bit flip at byte %d/%d went undetected", i, len(data))
		}
	}
	for cut := 0; cut < len(data); cut += 3 {
		if _, err := ReadCSV(bytes.NewReader(data[:cut])); err == nil {
			t.Fatalf("truncation to %d/%d bytes went undetected", cut, len(data))
		}
	}
	// Wrong container format must be rejected.
	var other bytes.Buffer
	aw, err := artifact.NewWriter(&other, "OTHERFMT", 1)
	if err != nil {
		t.Fatal(err)
	}
	aw.Write([]byte("x,y\n1,2\n"))
	aw.Close()
	if _, err := ReadCSV(bytes.NewReader(other.Bytes())); err == nil {
		t.Fatal("wrong container format not rejected")
	}
}
