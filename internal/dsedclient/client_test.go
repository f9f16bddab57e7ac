package dsedclient

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// sendEvent writes one SSE frame for ev and flushes.
func sendEvent(w http.ResponseWriter, ev Event) {
	data, _ := json.Marshal(ev)
	if ev.Seq > 0 {
		fmt.Fprintf(w, "id: %d\n", ev.Seq)
	}
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Type, data)
	w.(http.Flusher).Flush()
}

// sseServer builds a test daemon whose /events handler is scripted per
// connection: script[i] serves connection i (later connections reuse the
// last script entry). It returns the server and a connection counter.
func sseServer(t *testing.T, script []func(n int64, w http.ResponseWriter, r *http.Request)) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var conns atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := conns.Add(1)
		idx := int(n - 1)
		if idx >= len(script) {
			idx = len(script) - 1
		}
		w.Header().Set("Content-Type", "text/event-stream")
		script[idx](n, w, r)
	}))
	t.Cleanup(srv.Close)
	return srv, &conns
}

// fastOpts keeps reconnect tests quick.
func fastOpts() Options {
	return Options{
		BackoffBase:            5 * time.Millisecond,
		BackoffMax:             20 * time.Millisecond,
		MaxConsecutiveFailures: 4,
		StallTimeout:           2 * time.Second,
	}
}

func TestFollowReconnectResumesWithLastEventID(t *testing.T) {
	srv, conns := sseServer(t, []func(int64, http.ResponseWriter, *http.Request){
		func(n int64, w http.ResponseWriter, r *http.Request) {
			if r.Header.Get("Last-Event-ID") != "" {
				t.Errorf("first connection sent Last-Event-ID %q", r.Header.Get("Last-Event-ID"))
			}
			for i := uint64(1); i <= 3; i++ {
				sendEvent(w, Event{Seq: i, Job: "j", Type: "progress", Done: int(i), Total: 5})
			}
			// Drop the connection mid-stream: no terminal event.
		},
		func(n int64, w http.ResponseWriter, r *http.Request) {
			if got := r.Header.Get("Last-Event-ID"); got != "3" {
				t.Errorf("reconnect Last-Event-ID = %q, want 3", got)
			}
			sendEvent(w, Event{Seq: 4, Job: "j", Type: "progress", Done: 5, Total: 5})
			sendEvent(w, Event{Seq: 5, Job: "j", Type: "state", State: "done", Survivors: 7})
		},
	})

	var evs []Event
	var retries int
	term, err := New(srv.URL, fastOpts()).Follow(context.Background(), "j", FollowOptions{
		OnEvent: func(ev Event) { evs = append(evs, ev) },
		OnRetry: func(failures int, err error, delay time.Duration) { retries++ },
	})
	if err != nil {
		t.Fatalf("follow: %v", err)
	}
	if term.State != "done" || term.Survivors != 7 {
		t.Fatalf("terminal = %+v", term)
	}
	if conns.Load() != 2 || retries != 1 {
		t.Fatalf("connections = %d, retries = %d; want 2 and 1", conns.Load(), retries)
	}
	for i, ev := range evs {
		if ev.Seq != uint64(i+1) {
			t.Fatalf("evs[%d].Seq = %d: merged sequence has a gap or duplicate", i, ev.Seq)
		}
	}
	if len(evs) != 5 {
		t.Fatalf("delivered %d events, want 5", len(evs))
	}
}

func TestFollowFiltersReplayOverlap(t *testing.T) {
	srv, _ := sseServer(t, []func(int64, http.ResponseWriter, *http.Request){
		func(n int64, w http.ResponseWriter, r *http.Request) {
			// Deliberate at-least-once overlap: 1 2 3 2 3 4(terminal).
			for _, seq := range []uint64{1, 2, 3, 2, 3} {
				sendEvent(w, Event{Seq: seq, Job: "j", Type: "progress"})
			}
			sendEvent(w, Event{Seq: 4, Job: "j", Type: "state", State: "done"})
		},
	})
	var evs []Event
	if _, err := New(srv.URL, fastOpts()).Follow(context.Background(), "j", FollowOptions{
		OnEvent: func(ev Event) { evs = append(evs, ev) },
	}); err != nil {
		t.Fatalf("follow: %v", err)
	}
	if len(evs) != 4 {
		t.Fatalf("delivered %d events, want 4 (duplicates filtered)", len(evs))
	}
	for i, ev := range evs {
		if ev.Seq != uint64(i+1) {
			t.Fatalf("evs[%d].Seq = %d", i, ev.Seq)
		}
	}
}

func TestFollowCircuitBreaker(t *testing.T) {
	var conns atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		conns.Add(1)
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	t.Cleanup(srv.Close)
	_, err := New(srv.URL, fastOpts()).Follow(context.Background(), "j", FollowOptions{})
	if !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("err = %v, want ErrCircuitOpen", err)
	}
	if got := conns.Load(); got != 4 {
		t.Fatalf("connections = %d, want MaxConsecutiveFailures (4)", got)
	}
}

func TestFollowProgressResetsBreaker(t *testing.T) {
	// Each connection delivers one fresh event then dies. With
	// MaxConsecutiveFailures = 4, more than 4 connections must still
	// succeed because every attempt delivers progress.
	srv, conns := sseServer(t, []func(int64, http.ResponseWriter, *http.Request){
		func(n int64, w http.ResponseWriter, r *http.Request) {
			if n < 7 {
				sendEvent(w, Event{Seq: uint64(n), Job: "j", Type: "progress", Done: int(n)})
				return
			}
			sendEvent(w, Event{Seq: 7, Job: "j", Type: "state", State: "done"})
		},
	})
	term, err := New(srv.URL, fastOpts()).Follow(context.Background(), "j", FollowOptions{})
	if err != nil {
		t.Fatalf("follow: %v", err)
	}
	if term.State != "done" || conns.Load() != 7 {
		t.Fatalf("terminal %+v after %d connections", term, conns.Load())
	}
}

func TestFollowNotFoundIsTerminal(t *testing.T) {
	var conns atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		conns.Add(1)
		http.Error(w, `{"error":"unknown job"}`, http.StatusNotFound)
	}))
	t.Cleanup(srv.Close)
	_, err := New(srv.URL, fastOpts()).Follow(context.Background(), "ghost", FollowOptions{})
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
	if conns.Load() != 1 {
		t.Fatalf("connections = %d: unknown jobs must not be retried", conns.Load())
	}
}

func TestFollowLagReconnectsAndResumes(t *testing.T) {
	srv, conns := sseServer(t, []func(int64, http.ResponseWriter, *http.Request){
		func(n int64, w http.ResponseWriter, r *http.Request) {
			sendEvent(w, Event{Seq: 1, Job: "j", Type: "progress", Done: 1})
			sendEvent(w, Event{Seq: 2, Job: "j", Type: "progress", Done: 2})
			// Evict the client: lag notice carries no seq.
			sendEvent(w, Event{Job: "j", Type: "lag", Error: "subscriber lagged"})
		},
		func(n int64, w http.ResponseWriter, r *http.Request) {
			if got := r.Header.Get("Last-Event-ID"); got != "2" {
				t.Errorf("post-lag Last-Event-ID = %q, want 2", got)
			}
			sendEvent(w, Event{Seq: 3, Job: "j", Type: "state", State: "done"})
		},
	})
	var lagSeen bool
	var evs []Event
	term, err := New(srv.URL, fastOpts()).Follow(context.Background(), "j", FollowOptions{
		OnEvent: func(ev Event) {
			if ev.Type == "lag" {
				lagSeen = true
				return
			}
			evs = append(evs, ev)
		},
	})
	if err != nil {
		t.Fatalf("follow: %v", err)
	}
	if !lagSeen {
		t.Fatal("lag notice was not surfaced to OnEvent")
	}
	if term.Seq != 3 || len(evs) != 3 || conns.Load() != 2 {
		t.Fatalf("term=%+v events=%d conns=%d", term, len(evs), conns.Load())
	}
}

func TestFollowStallWatchdogReconnects(t *testing.T) {
	srv, conns := sseServer(t, []func(int64, http.ResponseWriter, *http.Request){
		func(n int64, w http.ResponseWriter, r *http.Request) {
			sendEvent(w, Event{Seq: 1, Job: "j", Type: "progress"})
			// Go silent: no heartbeats, no events. The watchdog must cut
			// this connection rather than hang forever.
			<-r.Context().Done()
		},
		func(n int64, w http.ResponseWriter, r *http.Request) {
			sendEvent(w, Event{Seq: 2, Job: "j", Type: "state", State: "done"})
		},
	})
	opts := fastOpts()
	opts.StallTimeout = 100 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	term, err := New(srv.URL, opts).Follow(ctx, "j", FollowOptions{})
	if err != nil {
		t.Fatalf("follow: %v", err)
	}
	if term.Seq != 2 || conns.Load() != 2 {
		t.Fatalf("term=%+v conns=%d, want seq 2 on connection 2", term, conns.Load())
	}
}

func TestFollowHonorsContextDuringBackoff(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	t.Cleanup(srv.Close)
	opts := fastOpts()
	opts.BackoffBase = 10 * time.Second // park in backoff
	opts.BackoffMax = 10 * time.Second
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := New(srv.URL, opts).Follow(ctx, "j", FollowOptions{})
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Follow did not return after context cancellation")
	}
}

func TestEventTerminal(t *testing.T) {
	for _, tc := range []struct {
		ev   Event
		want bool
	}{
		{Event{Type: "state", State: "done"}, true},
		{Event{Type: "state", State: "failed"}, true},
		{Event{Type: "state", State: "cancelled"}, true},
		{Event{Type: "state", State: "quarantined"}, true},
		{Event{Type: "state", State: "running"}, false},
		{Event{Type: "progress", State: "done"}, false},
	} {
		if got := tc.ev.Terminal(); got != tc.want {
			t.Errorf("Terminal(%+v) = %v, want %v", tc.ev, got, tc.want)
		}
	}
}
