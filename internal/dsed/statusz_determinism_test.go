package dsed

// Canonical-output determinism regression tests: the /statusz payload and
// the recovery report must render byte-identically for identical state.
// These pin the contract the determinism analyzer enforces statically —
// no field of the observability surface may depend on map iteration
// order, goroutine completion order, or filesystem enumeration order.

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"sort"
	"testing"
)

// TestStatuszPayloadByteStable renders one fixed Statusz snapshot through
// the server's JSON writer repeatedly and requires identical bytes. A
// map-typed field sneaking into the payload would still marshal sorted
// (encoding/json's guarantee), so what this really pins is slice ordering
// — CorruptFiles above all — and any future custom MarshalJSON.
func TestStatuszPayloadByteStable(t *testing.T) {
	snap := Statusz{
		UptimeSec: 42,
		Queued:    3,
		Running:   1,
		Cache:     CacheStats{Entries: 2, Hits: 10, Misses: 4},
		Events:    EventLogStats{Written: 7, Replayed: 2, Subscribers: 1},
		Pressure:  1,
		PeakHeap:  1 << 20,
		Disk: &DiskStatus{
			Mode:       DiskOK,
			SpoolBytes: 4096,
			SpoolFiles: 12,
		},
		Janitor: &JanitorStats{Sweeps: 5, JobsRemoved: 2},
		Recovery: &RecoveryReport{
			Terminal: 2,
			Requeued: 1,
			Corrupt:  2,
			CorruptFiles: []string{
				"events/job-a.jsonl.corrupt",
				"events/job-b.jsonl.corrupt",
			},
		},
	}
	var first []byte
	for i := 0; i < 8; i++ {
		rec := httptest.NewRecorder()
		writeJSON(rec, 200, snap)
		body := rec.Body.Bytes()
		if i == 0 {
			first = append([]byte(nil), body...)
			continue
		}
		if !bytes.Equal(first, body) {
			t.Fatalf("statusz render %d differs from render 0:\n%s\nvs\n%s", i, first, body)
		}
	}
}

// TestRecoveryReportCorruptFilesCanonical rots two job journals and
// requires the recovery report to name them in sorted order with
// byte-stable JSON — regardless of the order recovery encountered them.
func TestRecoveryReportCorruptFilesCanonical(t *testing.T) {
	dir := t.TempDir()
	q, err := OpenQueue(dir, QueueOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Submit in an order unrelated to the lexical order of the IDs.
	for _, id := range []string{"zeta", "alpha", "mid"} {
		if _, _, err := q.Submit(workloadSpec(id, "")); err != nil {
			t.Fatal(err)
		}
	}
	q.Close()
	for _, id := range []string{"zeta", "alpha"} {
		rotFirstFrame(t, q.journalPath(id))
	}

	q2, err := OpenQueue(dir, QueueOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rep := q2.Recovery()
	if rep.Corrupt != 2 || len(rep.CorruptFiles) != 2 {
		t.Fatalf("recovery report: %+v", rep)
	}
	if !sort.StringsAreSorted(rep.CorruptFiles) {
		t.Fatalf("CorruptFiles not canonical (sorted): %v", rep.CorruptFiles)
	}

	first, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		again, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, again) {
			t.Fatalf("recovery report render differs:\n%s\nvs\n%s", first, again)
		}
	}
}
