package dsed

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"graphdse/internal/dse"
)

// smallSpace keeps daemon tests fast: 2 cells × 13 = 26 points.
func smallSpace() *dse.SpaceParams {
	return &dse.SpaceParams{
		CPUFreqsMHz:  []float64{2000, 6500},
		CtrlFreqsMHz: []float64{400},
		Channels:     []int{2},
		Fractions:    []float64{0.25, 0.5, 0.75},
	}
}

// testServer wires a Server over a fresh queue with NO scheduler running, so
// submitted jobs stay queued — exactly what the admission tests need.
func testServer(t *testing.T, opts QueueOptions) (*Server, *Queue) {
	t.Helper()
	q, err := OpenQueue(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	cache := NewTraceCache(2)
	sched := NewScheduler(q, cache, nil, SchedulerOptions{})
	return NewServer(q, sched, cache, nil), q
}

func postJob(t *testing.T, h http.Handler, spec JobSpec) *httptest.ResponseRecorder {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest("POST", "/v1/jobs", bytes.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

// TestHTTPSaturationBackpressure: past the queue bound the daemon answers
// 429 with a positive Retry-After, not a hang or a dropped connection.
func TestHTTPSaturationBackpressure(t *testing.T) {
	srv, _ := testServer(t, QueueOptions{MaxQueued: 2, TenantCap: 8})
	h := srv.Handler()
	for i := 0; i < 2; i++ {
		if w := postJob(t, h, workloadSpec(fmt.Sprintf("f%d", i), fmt.Sprintf("t%d", i))); w.Code != http.StatusAccepted {
			t.Fatalf("fill %d: %d %s", i, w.Code, w.Body)
		}
	}
	w := postJob(t, h, workloadSpec("overflow", "t9"))
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("saturated submit: %d, want 429", w.Code)
	}
	ra, err := strconv.Atoi(w.Header().Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Fatalf("Retry-After %q, want positive integer seconds", w.Header().Get("Retry-After"))
	}
}

// TestHTTPTenantCap: one tenant at its cap gets 429 + Retry-After while
// other tenants still get through.
func TestHTTPTenantCap(t *testing.T) {
	srv, _ := testServer(t, QueueOptions{MaxQueued: 64, TenantCap: 1})
	h := srv.Handler()
	if w := postJob(t, h, workloadSpec("a1", "acme")); w.Code != http.StatusAccepted {
		t.Fatalf("first: %d", w.Code)
	}
	w := postJob(t, h, workloadSpec("a2", "acme"))
	if w.Code != http.StatusTooManyRequests || w.Header().Get("Retry-After") == "" {
		t.Fatalf("tenant over cap: %d Retry-After=%q", w.Code, w.Header().Get("Retry-After"))
	}
	if w := postJob(t, h, workloadSpec("b1", "other")); w.Code != http.StatusAccepted {
		t.Fatalf("other tenant: %d", w.Code)
	}
}

// TestHTTPDrainingAndErrors: draining yields 503 + Retry-After; bad specs
// 400; conflicts 409; unknown jobs 404; results of unfinished jobs 409.
func TestHTTPDrainingAndErrors(t *testing.T) {
	srv, q := testServer(t, QueueOptions{})
	h := srv.Handler()
	if w := postJob(t, h, workloadSpec("j1", "")); w.Code != http.StatusAccepted {
		t.Fatalf("submit: %d", w.Code)
	}
	// Idempotent re-submit is 200, not 202.
	if w := postJob(t, h, workloadSpec("j1", "")); w.Code != http.StatusOK {
		t.Fatalf("idempotent re-submit: %d, want 200", w.Code)
	}
	// Conflict on changed payload.
	changed := workloadSpec("j1", "")
	changed.Workload.Seed = 99
	if w := postJob(t, h, changed); w.Code != http.StatusConflict {
		t.Fatalf("conflict: %d, want 409", w.Code)
	}
	// Structurally invalid spec.
	if w := postJob(t, h, JobSpec{ID: "bad"}); w.Code != http.StatusBadRequest {
		t.Fatalf("bad spec: %d, want 400", w.Code)
	}
	// Unknown fields are rejected, not silently dropped.
	req := httptest.NewRequest("POST", "/v1/jobs", strings.NewReader(`{"workload":{},"surprise":1}`))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("unknown field: %d, want 400", w.Code)
	}
	// Status of an unknown job.
	req = httptest.NewRequest("GET", "/v1/jobs/ghost", nil)
	w = httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusNotFound {
		t.Fatalf("unknown status: %d, want 404", w.Code)
	}
	// Result before the job is done.
	req = httptest.NewRequest("GET", "/v1/jobs/j1/result", nil)
	w = httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusConflict {
		t.Fatalf("early result: %d, want 409", w.Code)
	}
	// Draining refuses new intake with 503 + Retry-After.
	q.SetDraining(true)
	w = postJob(t, h, workloadSpec("j2", ""))
	if w.Code != http.StatusServiceUnavailable || w.Header().Get("Retry-After") == "" {
		t.Fatalf("draining: %d Retry-After=%q", w.Code, w.Header().Get("Retry-After"))
	}
}

// TestHTTPCancelQueued: DELETE cancels a queued job and reports its state.
func TestHTTPCancelQueued(t *testing.T) {
	srv, _ := testServer(t, QueueOptions{})
	h := srv.Handler()
	if w := postJob(t, h, workloadSpec("c1", "")); w.Code != http.StatusAccepted {
		t.Fatalf("submit: %d", w.Code)
	}
	req := httptest.NewRequest("DELETE", "/v1/jobs/c1", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("cancel: %d %s", w.Code, w.Body)
	}
	var st JobStatus
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil || st.State != StateCancelled {
		t.Fatalf("cancel status: %+v err=%v", st, err)
	}
	// Cancelling a terminal job is a conflict.
	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("DELETE", "/v1/jobs/c1", nil))
	if w.Code != http.StatusConflict {
		t.Fatalf("double cancel: %d, want 409", w.Code)
	}
}

// startDaemon runs a full daemon (scheduler included) against a spool dir
// and returns its base URL plus a shutdown func that drains it.
func startDaemon(t *testing.T, dir string) (base string, shutdown func()) {
	t.Helper()
	d, err := New(Options{
		Addr: "127.0.0.1:0",
		Dir:  dir,
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
	return "http://" + d.Addr(), func() {
		cancel()
		wg.Wait()
		if err := <-runErr; err != nil {
			t.Errorf("daemon Run: %v", err)
		}
	}
}

// awaitState polls a job until it reaches a terminal state.
func awaitState(t *testing.T, base, id string, timeout time.Duration) JobStatus {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		resp, err := http.Get(base + "/v1/jobs/" + id)
		if err == nil {
			var st JobStatus
			jerr := json.NewDecoder(resp.Body).Decode(&st)
			resp.Body.Close()
			if jerr == nil && st.State.Terminal() {
				return st
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never reached a terminal state", id)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestDaemonEndToEnd: submit a real (small) sweep over HTTP, watch it run to
// done, fetch the sealed result, and drain the daemon cleanly.
func TestDaemonEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("full daemon sweep skipped in -short")
	}
	base, shutdown := startDaemon(t, t.TempDir())
	defer shutdown()

	spec := workloadSpec("e2e", "")
	spec.Space = smallSpace()
	body, _ := json.Marshal(spec)
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}

	st := awaitState(t, base, "e2e", 60*time.Second)
	if st.State != StateDone {
		t.Fatalf("job finished %s (%s), want done", st.State, st.Error)
	}
	if st.Survivors == 0 || st.Done != st.Total {
		t.Fatalf("job counters: %+v", st)
	}

	resp, err = http.Get(base + "/v1/jobs/e2e/result")
	if err != nil {
		t.Fatal(err)
	}
	var res JobResult
	err = json.NewDecoder(resp.Body).Decode(&res)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Sealed || res.ID != "e2e" || len(res.Records) != res.Total || res.Total == 0 {
		t.Fatalf("result: sealed=%v id=%s records=%d total=%d", res.Sealed, res.ID, len(res.Records), res.Total)
	}

	// /statusz answers with a coherent snapshot.
	resp, err = http.Get(base + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	var sz Statusz
	err = json.NewDecoder(resp.Body).Decode(&sz)
	resp.Body.Close()
	if err != nil || sz.Cache.Misses < 1 {
		t.Fatalf("statusz: %+v err=%v", sz, err)
	}
}

// TestProgressDoneCountsInOrder: with several sweep workers finishing
// points at once, a job's progress events still count 1, 2, …, total in
// journal order, and its final counters read total of total.
func TestProgressDoneCountsInOrder(t *testing.T) {
	q, err := OpenQueue(t.TempDir(), QueueOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	for i := 0; i < 8; i++ {
		spec := workloadSpec(fmt.Sprint("p", i), "")
		spec.Space = smallSpace()
		if _, _, err := q.Submit(spec); err != nil {
			t.Fatal(err)
		}
		// A fresh trace cache per job, so every point is swept.
		s := NewScheduler(q, NewTraceCache(1), nil, SchedulerOptions{JobWorkers: 1, SweepWorkers: 4})
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		rec, err := q.Next(ctx)
		cancel()
		if err != nil {
			t.Fatal(err)
		}
		s.runJob(context.Background(), rec)
		want := 0
		for _, ev := range q.events.History(spec.ID) {
			if ev.Type != EventProgress || len(ev.Record) == 0 {
				continue
			}
			if want++; ev.Done != want {
				t.Fatalf("job %s: progress event %d carries done %d", spec.ID, want, ev.Done)
			}
		}
		got, err := q.Get(spec.ID)
		if err != nil || got.State != StateDone || got.Done != got.Total || want != got.Total {
			t.Fatalf("job %s: %+v after %d point events (err %v)", spec.ID, got, want, err)
		}
	}
}

// TestCancelBeforeRunJobRegisters: a cancel that lands after Queue.Next has
// marked the job running but before runJob has registered its cancel func
// still cancels the job.
func TestCancelBeforeRunJobRegisters(t *testing.T) {
	q, err := OpenQueue(t.TempDir(), QueueOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	spec := workloadSpec("early", "")
	spec.Space = smallSpace()
	if _, _, err := q.Submit(spec); err != nil {
		t.Fatal(err)
	}
	s := NewScheduler(q, NewTraceCache(1), nil, SchedulerOptions{JobWorkers: 1, SweepWorkers: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	rec, err := q.Next(ctx)
	cancel()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Cancel(spec.ID); err != nil {
		t.Fatal(err)
	}
	s.runJob(context.Background(), rec)
	if got, err := q.Get(spec.ID); err != nil || got.State != StateCancelled {
		t.Fatalf("job cancelled before registration ended %+v (err %v)", got, err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.early) != 0 {
		t.Fatalf("early cancels left behind: %v", s.early)
	}
}
