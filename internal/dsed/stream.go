package dsed

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"graphdse/internal/dse"
)

// sseWriteDeadline bounds each individual SSE write. The daemon's blanket
// WriteTimeout would kill a long-lived stream outright, so the handler
// extends the connection deadline per write instead: a healthy stream lives
// indefinitely, a peer that stops reading is cut off within one deadline.
const sseWriteDeadline = 15 * time.Second

// parseAfter resolves the client's resume position: the standard
// Last-Event-ID header (set automatically by EventSource and by the
// dsedclient on reconnect), with an `after` query parameter as the
// curl-friendly equivalent. Zero means "from the beginning".
func parseAfter(r *http.Request) uint64 {
	raw := r.Header.Get("Last-Event-ID")
	if raw == "" {
		raw = r.URL.Query().Get("after")
	}
	if raw == "" {
		return 0
	}
	n, err := strconv.ParseUint(raw, 10, 64)
	if err != nil {
		return 0
	}
	return n
}

// handleEvents streams a job's event journal as Server-Sent Events. Every
// journaled event carries its per-job sequence number as the SSE `id:`
// field, so a disconnected client resumes exactly where it left off by
// reconnecting with `Last-Event-ID`. The stream ends after the job's
// terminal state event; until then, comment heartbeats flow every
// heartbeat interval so both sides notice a dead peer. A client that stops
// reading is evicted by the hub (never waited on) and told so with a
// final `lag` event.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rec, err := s.q.Get(id)
	if err != nil {
		writeJSON(w, http.StatusNotFound, apiError{Error: err.Error()})
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeJSON(w, http.StatusInternalServerError, apiError{Error: "dsed: streaming unsupported"})
		return
	}
	after := parseAfter(r)
	sub, backlog, err := s.q.Events().Subscribe(id, after)
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, apiError{Error: err.Error()})
		return
	}
	defer s.q.Events().Unsubscribe(sub)

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)

	rc := http.NewResponseController(w)
	send := func(ev Event) bool {
		data, merr := json.Marshal(&ev)
		if merr != nil {
			return false
		}
		_ = rc.SetWriteDeadline(time.Now().Add(sseWriteDeadline))
		if ev.Seq > 0 {
			if _, werr := fmt.Fprintf(w, "id: %d\n", ev.Seq); werr != nil {
				return false
			}
		}
		if _, werr := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Type, data); werr != nil {
			return false
		}
		fl.Flush()
		return true
	}

	// Backlog first (durable history), then the live channel. The two
	// overlap but never gap — every event is journaled before it is
	// published — so filtering on the last delivered seq makes the merged
	// stream exactly-once.
	last := after
	for _, ev := range backlog {
		if ev.Seq <= last {
			continue
		}
		if !send(ev) {
			return
		}
		last = ev.Seq
		if ev.Terminal() {
			return
		}
	}
	// A job that was already terminal before we subscribed has journaled
	// its terminal event before the backlog snapshot: if it was not in the
	// backlog the client already has it, and the stream is complete.
	if rec.State.Terminal() {
		return
	}

	hb := s.heartbeat
	if hb <= 0 {
		hb = 10 * time.Second
	}
	ticker := time.NewTicker(hb)
	defer ticker.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-sub.Evicted():
			// Parting notice, without an id: the client's resume position
			// stays at the last journaled event it actually received.
			send(Event{Job: id, Type: EventLag, Error: "subscriber lagged; resume with Last-Event-ID"})
			return
		case ev := <-sub.Events():
			if ev.Seq <= last {
				continue
			}
			if !send(ev) {
				return
			}
			last = ev.Seq
			if ev.Terminal() {
				return
			}
		case <-ticker.C:
			_ = rc.SetWriteDeadline(time.Now().Add(sseWriteDeadline))
			if _, werr := fmt.Fprint(w, ": hb\n\n"); werr != nil {
				return
			}
			fl.Flush()
		}
	}
}

// sealedRecords loads a done job's report (doneResult) and decodes its
// canonical records against the job's design space — the read side of the
// query endpoints. On false the HTTP error is already written.
func (s *Server) sealedRecords(w http.ResponseWriter, id string) ([]dse.RunRecord, bool) {
	rec, data, ok := s.doneResult(w, id)
	if !ok {
		return nil, false
	}
	var res JobResult
	if err := json.Unmarshal(data, &res); err != nil {
		writeJSON(w, http.StatusInternalServerError, apiError{Error: fmt.Sprintf("dsed: result for %s: %v", id, err)})
		return nil, false
	}
	records, err := dse.DecodeCanonicalRecords(res.Records, rec.Spec.points())
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, apiError{Error: fmt.Sprintf("dsed: decode result records: %v", err)})
		return nil, false
	}
	return records, true
}

// ParetoPoint is one non-dominated configuration in a job's Pareto front.
type ParetoPoint struct {
	ID           string  `json:"id"`
	MemType      string  `json:"mem_type"`
	Channels     int     `json:"channels"`
	CtrlMHz      float64 `json:"ctrl_mhz"`
	CPUMHz       float64 `json:"cpu_mhz"`
	PowerW       float64 `json:"power_w"`
	BandwidthMBs float64 `json:"bandwidth_mbs"`
	AvgLatency   float64 `json:"avg_latency_cycles"`
	TotalLatency float64 `json:"total_latency_cycles"`
}

// ParetoResponse is the body of GET /v1/jobs/{id}/pareto.
type ParetoResponse struct {
	ID         string        `json:"id"`
	Objectives []string      `json:"objectives"`
	Survivors  int           `json:"survivors"`
	Front      []ParetoPoint `json:"front"`
}

// handlePareto recomputes the Pareto front of a done job from its report
// under the default paper objectives (min power and latencies, max
// bandwidth).
func (s *Server) handlePareto(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	records, ok := s.sealedRecords(w, id)
	if !ok {
		return
	}
	objectives := dse.DefaultObjectives()
	front, err := dse.ParetoFront(records, objectives)
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, apiError{Error: fmt.Sprintf("dsed: pareto: %v", err)})
		return
	}
	resp := ParetoResponse{ID: id, Survivors: len(dse.Survivors(records))}
	for _, o := range objectives {
		name := o.Metric
		if o.Maximize {
			name = "max:" + name
		} else {
			name = "min:" + name
		}
		resp.Objectives = append(resp.Objectives, name)
	}
	for _, rec := range front {
		m := rec.Result
		resp.Front = append(resp.Front, ParetoPoint{
			ID:           rec.Point.ID(),
			MemType:      rec.Point.Type.String(),
			Channels:     rec.Point.Channels,
			CtrlMHz:      rec.Point.CtrlFreqMHz,
			CPUMHz:       rec.Point.CPUFreqMHz,
			PowerW:       m.AvgPowerPerChannel,
			BandwidthMBs: m.AvgBandwidthPerBank,
			AvgLatency:   m.AvgLatency,
			TotalLatency: m.AvgTotalLatency,
		})
	}
	writeJSON(w, http.StatusOK, resp)
}

// RecommendResponse is the body of GET /v1/jobs/{id}/recommend: the §IV-B
// co-design guidance recomputed from the job's report.
type RecommendResponse struct {
	ID                     string  `json:"id"`
	BestPowerType          string  `json:"best_power_type"`
	BestPowerCtrlMHz       float64 `json:"best_power_ctrl_mhz"`
	BestPowerWatts         float64 `json:"best_power_watts"`
	BestEnduranceType      string  `json:"best_endurance_type"`
	BestEnduranceChannels  int     `json:"best_endurance_channels"`
	BestEnduranceCPUMHz    float64 `json:"best_endurance_cpu_mhz"`
	BestEnduranceCtrlMHz   float64 `json:"best_endurance_ctrl_mhz"`
	BestBandwidthType      string  `json:"best_bandwidth_type"`
	BestBandwidthMBs       float64 `json:"best_bandwidth_mbs"`
	BestAvgLatencyType     string  `json:"best_avg_latency_type"`
	BestAvgLatencyCycles   float64 `json:"best_avg_latency_cycles"`
	BestTotalLatencyType   string  `json:"best_total_latency_type"`
	BestTotalLatencyCycles float64 `json:"best_total_latency_cycles"`
}

// handleRecommend recomputes the recommendation set from a done job's
// report. Model rankings (Table I) need a trained surrogate and are
// out of the daemon's scope, so BestModel is intentionally absent here —
// `cmd/dse -recommend` remains the full offline path.
func (s *Server) handleRecommend(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	records, ok := s.sealedRecords(w, id)
	if !ok {
		return
	}
	fig2 := dse.BuildFigure2(records)
	if len(fig2) == 0 {
		writeJSON(w, http.StatusInternalServerError, apiError{Error: "dsed: no surviving records to recommend from"})
		return
	}
	rec := dse.Recommend(fig2, nil)
	writeJSON(w, http.StatusOK, RecommendResponse{
		ID:                     id,
		BestPowerType:          rec.BestPowerType.String(),
		BestPowerCtrlMHz:       rec.BestPowerCtrlMHz,
		BestPowerWatts:         rec.BestPowerWatts,
		BestEnduranceType:      rec.BestEnduranceType.String(),
		BestEnduranceChannels:  rec.BestEnduranceChannels,
		BestEnduranceCPUMHz:    rec.BestEnduranceCPUMHz,
		BestEnduranceCtrlMHz:   rec.BestEnduranceCtrlMHz,
		BestBandwidthType:      rec.BestBandwidthType.String(),
		BestBandwidthMBs:       rec.BestBandwidthMBs,
		BestAvgLatencyType:     rec.BestAvgLatencyType.String(),
		BestAvgLatencyCycles:   rec.BestAvgLatencyCycles,
		BestTotalLatencyType:   rec.BestTotalLatencyType.String(),
		BestTotalLatencyCycles: rec.BestTotalLatencyCycles,
	})
}
