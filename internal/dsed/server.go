package dsed

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"graphdse/internal/guard"
)

// maxSubmitBody bounds a job-submission body; a spec is small, and the
// daemon must not buffer unbounded client input.
const maxSubmitBody = 1 << 20

// Server is the HTTP face of the daemon: job submission with admission
// control, status/result queries, cancellation, and observability.
type Server struct {
	q       *Queue
	sched   *Scheduler
	cache   *TraceCache
	gov     *guard.Governor
	disk    *DiskGovernor
	janitor *Janitor
	start   time.Time
	// heartbeat is the SSE comment-heartbeat interval (default 10s); tests
	// shorten it.
	heartbeat time.Duration
}

// NewServer wires the HTTP layer (gov may be nil).
func NewServer(q *Queue, sched *Scheduler, cache *TraceCache, gov *guard.Governor) *Server {
	return &Server{q: q, sched: sched, cache: cache, gov: gov, start: time.Now()}
}

// SetHeartbeat overrides the SSE heartbeat interval (<=0 keeps the default).
func (s *Server) SetHeartbeat(d time.Duration) { s.heartbeat = d }

// SetDisk wires the disk governor into health and status reporting.
func (s *Server) SetDisk(g *DiskGovernor) { s.disk = g }

// SetJanitor wires the janitor into status reporting.
func (s *Server) SetJanitor(j *Janitor) { s.janitor = j }

// Handler builds the route table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/jobs/{id}/pareto", s.handlePareto)
	mux.HandleFunc("GET /v1/jobs/{id}/recommend", s.handleRecommend)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /statusz", s.handleStatusz)
	return mux
}

// NewHTTPServer wraps the handler in an http.Server with the timeout
// discipline the httpctx analyzer enforces: a daemon that accepts work from
// the network must never let one stalled peer pin a connection (and its
// goroutine) forever.
func NewHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
}

// apiError is the uniform error body.
type apiError struct {
	Error string `json:"error"`
}

// writeJSON renders one response.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

// retryAfterSeconds estimates when a saturated daemon is worth retrying:
// proportional to the backlog, bounded so clients never park for long.
func (s *Server) retryAfterSeconds() int {
	queued, running := s.q.Depth()
	sec := 1 + (queued+running)/2
	if sec > 60 {
		sec = 60
	}
	return sec
}

// rejectSubmit maps admission-control errors to status codes. Saturation
// and tenant caps are 429 with Retry-After — explicit backpressure, not a
// dropped connection; draining is 503 (retry against the replacement
// daemon, not this one). Spool pressure is 507 Insufficient Storage and
// degraded storage 503, both with Retry-After: the janitor or a recovery
// probe may clear either, so a paced retry is the right client move.
func (s *Server) rejectSubmit(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrSaturated), errors.Is(err, ErrTenantBusy):
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		writeJSON(w, http.StatusTooManyRequests, apiError{Error: err.Error()})
	case errors.Is(err, ErrSpoolPressure):
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		writeJSON(w, http.StatusInsufficientStorage, apiError{Error: err.Error()})
	case errors.Is(err, ErrDegraded):
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		writeJSON(w, http.StatusServiceUnavailable, apiError{Error: err.Error()})
	case errors.Is(err, ErrDraining):
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		writeJSON(w, http.StatusServiceUnavailable, apiError{Error: err.Error()})
	case errors.Is(err, ErrSpecConflict):
		writeJSON(w, http.StatusConflict, apiError{Error: err.Error()})
	case errors.Is(err, ErrBadSpec):
		writeJSON(w, http.StatusBadRequest, apiError{Error: err.Error()})
	default:
		writeJSON(w, http.StatusInternalServerError, apiError{Error: err.Error()})
	}
}

// JobStatus is the client view of one job.
type JobStatus struct {
	ID          string   `json:"id"`
	Tenant      string   `json:"tenant"`
	State       JobState `json:"state"`
	Attempt     int      `json:"attempt"`
	Done        int      `json:"done"`
	Total       int      `json:"total"`
	Survivors   int      `json:"survivors,omitempty"`
	Quarantined int      `json:"quarantined,omitempty"`
	Error       string   `json:"error,omitempty"`
}

func statusOf(rec JobRecord) JobStatus {
	return JobStatus{
		ID:          rec.Spec.ID,
		Tenant:      rec.Spec.tenant(),
		State:       rec.State,
		Attempt:     rec.Attempt,
		Done:        rec.Done,
		Total:       rec.Total,
		Survivors:   rec.Survivors,
		Quarantined: rec.Quarantined,
		Error:       rec.Error,
	}
}

// handleSubmit admits one job. 202 for a new job, 200 for an idempotent
// re-submission.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSubmitBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: fmt.Sprintf("decode spec: %v", err)})
		return
	}
	if spec.Tenant == "" {
		spec.Tenant = r.Header.Get("X-Tenant")
	}
	rec, existing, err := s.q.Submit(spec)
	if err != nil {
		s.rejectSubmit(w, err)
		return
	}
	status := http.StatusAccepted
	if existing {
		status = http.StatusOK
	}
	writeJSON(w, status, statusOf(rec))
}

// handleList returns every known job, oldest first.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	recs := s.q.List()
	out := make([]JobStatus, 0, len(recs))
	for _, rec := range recs {
		out = append(out, statusOf(rec))
	}
	writeJSON(w, http.StatusOK, out)
}

// handleStatus returns one job.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	rec, err := s.q.Get(r.PathValue("id"))
	if err != nil {
		writeJSON(w, http.StatusNotFound, apiError{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, statusOf(rec))
}

// handleCancel cancels one job. A queued job cancels synchronously (200,
// terminal record); a running job's cancel propagates through the sweep
// context and lands at point granularity, so the response is 202 with the
// still-running record — the terminal `cancelled` event on the job's
// stream is the completion signal. Terminal jobs keep the 409 contract.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := s.sched.Cancel(id); err != nil {
		switch {
		case errors.Is(err, ErrUnknownJob):
			writeJSON(w, http.StatusNotFound, apiError{Error: err.Error()})
		case errors.Is(err, ErrNotCancellable):
			writeJSON(w, http.StatusConflict, apiError{Error: err.Error()})
		default:
			writeJSON(w, http.StatusInternalServerError, apiError{Error: err.Error()})
		}
		return
	}
	rec, err := s.q.Get(id)
	if err != nil {
		writeJSON(w, http.StatusNotFound, apiError{Error: err.Error()})
		return
	}
	status := http.StatusOK
	if !rec.State.Terminal() {
		status = http.StatusAccepted
	}
	writeJSON(w, status, statusOf(rec))
}

// doneResult loads job id's report (Queue.Result) for the read endpoints:
// 404 for an unknown job, 409 until it is done. On false the HTTP error is
// already written.
func (s *Server) doneResult(w http.ResponseWriter, id string) (JobRecord, []byte, bool) {
	rec, err := s.q.Get(id)
	if err != nil {
		writeJSON(w, http.StatusNotFound, apiError{Error: err.Error()})
		return JobRecord{}, nil, false
	}
	if rec.State != StateDone {
		writeJSON(w, http.StatusConflict, apiError{Error: fmt.Sprintf("dsed: job %s is %s, result available once done", id, rec.State)})
		return JobRecord{}, nil, false
	}
	data, err := s.q.Result(rec)
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, apiError{Error: fmt.Sprintf("dsed: result: %v", err)})
		return JobRecord{}, nil, false
	}
	return rec, data, true
}

// handleResult serves the report of a done job.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	_, data, ok := s.doneResult(w, r.PathValue("id"))
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(data)
}

// handleHealth is the liveness-and-serviceability probe. A healthy or
// merely pressured daemon answers 200 (with the mode, so orchestration can
// see pressure building); a storage-degraded daemon answers 503 with the
// cause — it is alive, still serves reads and streams, but must not
// receive new work.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if s.disk == nil {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
		return
	}
	ds := s.disk.Status()
	body := map[string]string{"status": string(ds.Mode)}
	if ds.Cause != "" {
		body["cause"] = ds.Cause
	}
	if ds.Mode == DiskDegraded {
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		writeJSON(w, http.StatusServiceUnavailable, body)
		return
	}
	writeJSON(w, http.StatusOK, body)
}

// Statusz is the daemon's observability snapshot.
type Statusz struct {
	UptimeSec  int64           `json:"uptime_sec"`
	Queued     int             `json:"queued"`
	Running    int             `json:"running"`
	Cache      CacheStats      `json:"cache"`
	Events     EventLogStats   `json:"events"`
	Pressure   int             `json:"pressure"`
	PeakHeap   uint64          `json:"peak_heap_bytes"`
	Downshifts int             `json:"downshifts"`
	Disk       *DiskStatus     `json:"disk,omitempty"`
	Janitor    *JanitorStats   `json:"janitor,omitempty"`
	Recovery   *RecoveryReport `json:"recovery,omitempty"`
}

// handleStatusz reports queue depth, cache health, governor pressure, and
// the storage substrate's state (disk governor, janitor, recovery report).
func (s *Server) handleStatusz(w http.ResponseWriter, r *http.Request) {
	queued, running := s.q.Depth()
	st := Statusz{
		UptimeSec: int64(time.Since(s.start).Seconds()),
		Queued:    queued,
		Running:   running,
		Cache:     s.cache.Stats(),
		Events:    s.q.Events().Stats(),
		Recovery:  s.q.Recovery(),
	}
	if s.gov != nil {
		st.Pressure = s.gov.Pressure()
		st.PeakHeap = s.gov.PeakHeapBytes()
		st.Downshifts = len(s.gov.Downshifts())
	}
	if s.disk != nil {
		ds := s.disk.Status()
		st.Disk = &ds
	}
	if s.janitor != nil {
		js := s.janitor.Stats()
		st.Janitor = &js
	}
	writeJSON(w, http.StatusOK, st)
}
