package dsed

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"graphdse/internal/dsedclient"
)

// startDaemonOpts is startDaemon with control over queue/stream options and
// access to the Daemon itself.
func startDaemonOpts(t *testing.T, dir string, qo QueueOptions) (d *Daemon, base string, shutdown func()) {
	t.Helper()
	d, err := New(Options{
		Addr:  "127.0.0.1:0",
		Dir:   dir,
		Queue: qo,
		Scheduler: SchedulerOptions{
			JobWorkers:   1,
			SweepWorkers: 2,
			Logf:         t.Logf,
		},
		SSEHeartbeat: 200 * time.Millisecond,
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
	return d, "http://" + d.Addr(), func() {
		cancel()
		wg.Wait()
		if err := <-runErr; err != nil {
			t.Errorf("daemon Run: %v", err)
		}
	}
}

// checkEventSequence asserts the client-observed stream is gap-free,
// duplicate-free, and ends with exactly one terminal state event, returning
// that terminal event.
func checkEventSequence(t *testing.T, evs []dsedclient.Event, wantFirst uint64) dsedclient.Event {
	t.Helper()
	if len(evs) == 0 {
		t.Fatal("no events delivered")
	}
	next := wantFirst
	terminals := 0
	for i, ev := range evs {
		if ev.Type == "lag" {
			continue // advisory, unjournaled, carries no seq
		}
		if ev.Seq != next {
			t.Fatalf("event %d: seq %d, want %d (gap or duplicate)", i, ev.Seq, next)
		}
		next++
		if ev.Terminal() {
			terminals++
			if i != len(evs)-1 {
				t.Fatalf("terminal event at index %d of %d: stream continued past terminal", i, len(evs))
			}
		}
	}
	if terminals != 1 {
		t.Fatalf("saw %d terminal events, want exactly 1", terminals)
	}
	return evs[len(evs)-1]
}

// TestStreamEndToEndWithQueries drives a real sweep while a dsedclient
// follows its stream, then hits the pareto/recommend query endpoints of the
// sealed report.
func TestStreamEndToEndWithQueries(t *testing.T) {
	if testing.Short() {
		t.Skip("full daemon sweep skipped in -short")
	}
	_, base, shutdown := startDaemonOpts(t, t.TempDir(), QueueOptions{})
	defer shutdown()

	spec := workloadSpec("s1", "")
	spec.Space = smallSpace()
	spec.FailureRate = 0.15 // force some per-point failure events
	body, _ := json.Marshal(spec)
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	client := dsedclient.New(base, dsedclient.Options{BackoffBase: 20 * time.Millisecond})
	var evs []dsedclient.Event
	term, err := client.Follow(ctx, "s1", dsedclient.FollowOptions{
		OnEvent: func(ev dsedclient.Event) { evs = append(evs, ev) },
	})
	if err != nil {
		t.Fatalf("follow: %v", err)
	}
	if term.State != "done" {
		t.Fatalf("terminal state %q (%s), want done", term.State, term.Error)
	}
	last := checkEventSequence(t, evs, 1)
	if last.Survivors == 0 {
		t.Fatalf("terminal event reports %d survivors", last.Survivors)
	}
	counts := map[string]int{}
	for _, ev := range evs {
		counts[ev.Type]++
	}
	if counts["state"] < 3 { // queued, running, done
		t.Fatalf("state events = %d, want >= 3 (%v)", counts["state"], counts)
	}
	if counts["progress"] == 0 || len(counts) != 3 {
		t.Fatalf("event mix %v: want progress > 0 and no types but state, progress and failure", counts)
	}
	if counts["failure"] == 0 {
		t.Fatalf("event mix %v: want failure events under FailureRate", counts)
	}

	// Resume from mid-stream: the replay must start exactly after the
	// requested position and still end with the terminal event.
	after := evs[len(evs)/2].Seq
	var resumed []dsedclient.Event
	term2, err := client.Follow(ctx, "s1", dsedclient.FollowOptions{
		After:   after,
		OnEvent: func(ev dsedclient.Event) { resumed = append(resumed, ev) },
	})
	if err != nil {
		t.Fatalf("resume follow: %v", err)
	}
	if term2.Seq != term.Seq || term2.State != "done" {
		t.Fatalf("resumed terminal %+v, want %+v", term2, term)
	}
	checkEventSequence(t, resumed, after+1)

	// Query endpoints serve from the sealed report.
	var pr ParetoResponse
	getJSON(t, base+"/v1/jobs/s1/pareto", http.StatusOK, &pr)
	if pr.ID != "s1" || len(pr.Front) == 0 || len(pr.Objectives) != 4 {
		t.Fatalf("pareto response: %+v", pr)
	}
	for _, p := range pr.Front {
		if p.ID == "" || p.PowerW <= 0 {
			t.Fatalf("pareto point: %+v", p)
		}
	}
	var rr RecommendResponse
	getJSON(t, base+"/v1/jobs/s1/recommend", http.StatusOK, &rr)
	if rr.ID != "s1" || rr.BestPowerType == "" || rr.BestBandwidthMBs <= 0 {
		t.Fatalf("recommend response: %+v", rr)
	}

	// The event-path counters surface in /statusz.
	var sz Statusz
	getJSON(t, base+"/statusz", http.StatusOK, &sz)
	if sz.Events.Written == 0 || sz.Events.ResumeHits == 0 || sz.Events.FullReplays == 0 {
		t.Fatalf("statusz events: %+v", sz.Events)
	}
}

// getJSON fetches one JSON endpoint and decodes it.
func getJSON(t *testing.T, url string, wantStatus int, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s: %d, want %d", url, resp.StatusCode, wantStatus)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: decode: %v", url, err)
	}
}

// TestStreamSlowSubscriberNeverBlocksScheduler attaches a subscriber that
// never reads to a paced real sweep: the sweep must finish on time and the
// laggard must be evicted — the scheduler's progress is never hostage to a
// stalled consumer.
func TestStreamSlowSubscriberNeverBlocksScheduler(t *testing.T) {
	if testing.Short() {
		t.Skip("full daemon sweep skipped in -short")
	}
	d, base, shutdown := startDaemonOpts(t, t.TempDir(), QueueOptions{EventBuffer: 1})
	defer shutdown()

	spec := workloadSpec("slow", "")
	spec.Space = smallSpace()
	body, _ := json.Marshal(spec)
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// Attach directly at the hub, with a one-event buffer, and never read.
	sub, _, err := d.Queue().Events().Subscribe("slow", 0)
	if err != nil {
		t.Fatal(err)
	}
	st := awaitState(t, base, "slow", 60*time.Second)
	if st.State != StateDone {
		t.Fatalf("job under stalled subscriber finished %s (%s), want done", st.State, st.Error)
	}
	select {
	case <-sub.Evicted():
	case <-time.After(2 * time.Second):
		t.Fatal("stalled subscriber was never evicted")
	}
	if got := d.Queue().Events().Stats().SlowEvictions; got == 0 {
		t.Fatalf("SlowEvictions = %d, want > 0", got)
	}
}

// TestHTTPCancelRunningJob: DELETE on a running job answers 202 (the cancel
// lands at point granularity), the job converges to cancelled, and its
// stream ends with a terminal cancelled event.
func TestHTTPCancelRunningJob(t *testing.T) {
	if testing.Short() {
		t.Skip("full daemon sweep skipped in -short")
	}
	_, base, shutdown := startDaemonOpts(t, t.TempDir(), QueueOptions{})
	defer shutdown()

	spec := workloadSpec("c-run", "")
	spec.Space = smallSpace()
	spec.PointDelayMS = 150 // pace the sweep so the cancel lands mid-run
	body, _ := json.Marshal(spec)
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// Wait until it is actually running.
	deadline := time.Now().Add(30 * time.Second)
	for {
		var st JobStatus
		getJSON(t, base+"/v1/jobs/c-run", http.StatusOK, &st)
		if st.State == StateRunning {
			break
		}
		if st.State.Terminal() {
			t.Fatalf("job terminal (%s) before cancel", st.State)
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started running")
		}
		time.Sleep(10 * time.Millisecond)
	}

	req, _ := http.NewRequest(http.MethodDelete, base+"/v1/jobs/c-run", nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel running: %d, want 202", dresp.StatusCode)
	}

	st := awaitState(t, base, "c-run", 30*time.Second)
	if st.State != StateCancelled {
		t.Fatalf("job finished %s, want cancelled", st.State)
	}
	// A second DELETE keeps the 409-on-terminal contract.
	dresp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusConflict {
		t.Fatalf("cancel terminal: %d, want 409", dresp.StatusCode)
	}

	// The stream replays to a terminal cancelled event.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	client := dsedclient.New(base, dsedclient.Options{BackoffBase: 20 * time.Millisecond})
	var evs []dsedclient.Event
	term, err := client.Follow(ctx, "c-run", dsedclient.FollowOptions{
		OnEvent: func(ev dsedclient.Event) { evs = append(evs, ev) },
	})
	if err != nil {
		t.Fatalf("follow cancelled job: %v", err)
	}
	if term.State != "cancelled" {
		t.Fatalf("terminal state %q, want cancelled", term.State)
	}
	checkEventSequence(t, evs, 1)
}

// TestHTTPStreamAndQueryErrors covers the cold paths without a scheduler:
// unknown jobs 404, queries on unfinished jobs 409.
func TestHTTPStreamAndQueryErrors(t *testing.T) {
	srv, _ := testServer(t, QueueOptions{})
	h := srv.Handler()
	if w := postJob(t, h, workloadSpec("q1", "")); w.Code != http.StatusAccepted {
		t.Fatalf("submit: %d", w.Code)
	}
	for _, tc := range []struct {
		path string
		want int
	}{
		{"/v1/jobs/ghost/events", http.StatusNotFound},
		{"/v1/jobs/ghost/pareto", http.StatusNotFound},
		{"/v1/jobs/ghost/recommend", http.StatusNotFound},
		{"/v1/jobs/q1/pareto", http.StatusConflict},
		{"/v1/jobs/q1/recommend", http.StatusConflict},
	} {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("GET", tc.path, nil))
		if w.Code != tc.want {
			t.Fatalf("GET %s: %d, want %d", tc.path, w.Code, tc.want)
		}
	}
}

// TestSSEHandlerClosedStreamOfTerminalJob: a client that already consumed
// the whole stream reconnects after the job is terminal and gets a clean,
// immediate end-of-stream instead of an idle hang.
func TestSSEHandlerClosedStreamOfTerminalJob(t *testing.T) {
	srv, q := testServer(t, QueueOptions{})
	h := srv.Handler()
	if w := postJob(t, h, workloadSpec("t1", "")); w.Code != http.StatusAccepted {
		t.Fatalf("submit: %d", w.Code)
	}
	if _, err := q.CancelQueued("t1"); err != nil {
		t.Fatal(err)
	}
	// Full replay ends at the terminal cancelled event.
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", "/v1/jobs/t1/events", nil))
	out := w.Body.String()
	if !bytes.Contains(w.Body.Bytes(), []byte(`"state":"cancelled"`)) {
		t.Fatalf("replay missing terminal event:\n%s", out)
	}
	// Resume past the end: immediate clean close, no events.
	req := httptest.NewRequest("GET", "/v1/jobs/t1/events", nil)
	req.Header.Set("Last-Event-ID", fmt.Sprint(1<<30))
	w = httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if body := w.Body.String(); bytes.Contains(w.Body.Bytes(), []byte("data:")) {
		t.Fatalf("past-end resume replayed events:\n%s", body)
	}
}
