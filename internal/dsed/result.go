package dsed

import (
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"sync"

	"graphdse/internal/dse"
)

// resultCacheEntries bounds the result documents the queue keeps in
// memory. A miss re-derives the document from the job's journal (a few
// milliseconds for a 26-point job), so the cache need only cover the reads
// that follow a commit.
const resultCacheEntries = 16

// JobResult is the final report of one done job. It is never stored: the
// scheduler renders it at commit, and a later read re-derives it from the
// job's journal (renderResult). Everything in it is deterministic for a
// given spec — Records are the canonical sorted record encodings, Pareto
// the sorted non-dominated point IDs — which is what makes a resumed job's
// report byte-identical to an uninterrupted one.
type JobResult struct {
	ID          string            `json:"id"`
	Total       int               `json:"total"`
	Survivors   int               `json:"survivors"`
	Quarantined int               `json:"quarantined"`
	Pareto      []string          `json:"pareto,omitempty"`
	Records     []json.RawMessage `json:"records"`
	// Sealed marks the report complete; it is always true, because only a
	// committed job has a report.
	Sealed bool `json:"sealed"`
}

// buildResult renders the canonical report bytes.
func buildResult(id string, records []dse.RunRecord, gate *dse.GateReport) ([]byte, error) {
	canon, err := dse.CanonicalRecords(records)
	if err != nil {
		return nil, err
	}
	res := JobResult{
		ID:          id,
		Total:       len(records),
		Survivors:   gate.Survivors,
		Quarantined: gate.Quarantined,
		Records:     canon,
		Sealed:      true,
	}
	if front, perr := dse.ParetoFront(records, dse.DefaultObjectives()); perr == nil {
		ids := make([]string, 0, len(front))
		for _, r := range front {
			ids = append(ids, r.Point.ID())
		}
		sort.Strings(ids)
		res.Pareto = ids
	}
	out, err := json.Marshal(&res)
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// journaledRecords decodes the point records a job's journal history
// holds, keyed by point ID. The frames are CRC-checked, so a record that
// fails to decode is a bug, not damage, and fails the caller rather than
// being re-run.
func journaledRecords(history []Event, points []dse.DesignPoint) (map[string]dse.RunRecord, error) {
	var lines []json.RawMessage
	for _, ev := range history {
		if ev.Type == EventProgress && len(ev.Record) > 0 {
			lines = append(lines, ev.Record)
		}
	}
	have := make(map[string]dse.RunRecord, len(lines))
	if len(lines) == 0 {
		return have, nil
	}
	recs, err := dse.DecodeCanonicalRecords(lines, points)
	if err != nil {
		return nil, err
	}
	for _, r := range recs {
		have[r.Point.ID()] = r
	}
	return have, nil
}

// renderResult re-derives a done job's report from its journal history:
// the point records in EnumerateSpace order, the invariant gate replayed
// over the trace event count the done event carries, then buildResult —
// the same steps, over the same records, the scheduler took at commit, so
// the bytes are the same too. The replayed gate must reproduce the
// journaled survivor and quarantine counts.
func renderResult(rec *JobRecord, history []Event) ([]byte, error) {
	id := rec.Spec.ID
	points := rec.Spec.points()
	have, err := journaledRecords(history, points)
	if err != nil {
		return nil, fmt.Errorf("dsed: job %s journal: %w", id, err)
	}
	records := make([]dse.RunRecord, len(points))
	for i, p := range points {
		r, ok := have[p.ID()]
		if !ok {
			return nil, fmt.Errorf("dsed: job %s journal lacks point %s", id, p.ID())
		}
		records[i] = r
	}
	gate, err := dse.ApplyInvariantGate(records, rec.TraceEvents)
	if err != nil {
		return nil, fmt.Errorf("dsed: job %s invariant gate: %w", id, err)
	}
	if gate.Survivors != rec.Survivors || gate.Quarantined != rec.Quarantined {
		return nil, fmt.Errorf("dsed: job %s gate replays %d survivors, %d quarantined; journal says %d, %d",
			id, gate.Survivors, gate.Quarantined, rec.Survivors, rec.Quarantined)
	}
	return buildResult(id, records, gate)
}

// resultCache holds the newest resultCacheEntries result documents, keyed
// by job ID.
type resultCache struct {
	mu sync.Mutex
	// order lists the cached IDs oldest first; guarded by mu.
	order []string
	// data is guarded by mu.
	data map[string][]byte
}

func (c *resultCache) get(id string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	data, ok := c.data[id]
	return data, ok
}

func (c *resultCache) put(id string, data []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.data == nil {
		c.data = make(map[string][]byte, resultCacheEntries)
	}
	if _, ok := c.data[id]; !ok {
		if len(c.order) == resultCacheEntries {
			delete(c.data, c.order[0])
			c.order = c.order[1:]
		}
		c.order = append(c.order, id)
	}
	c.data[id] = data
}

func (c *resultCache) drop(id string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.data[id]; ok {
		delete(c.data, id)
		c.order = slices.DeleteFunc(c.order, func(o string) bool { return o == id })
	}
}

// Result returns the report of rec, which must be a done job: the bytes
// the scheduler cached at commit or, after a restart or an eviction, the
// report re-derived from the job's journal.
func (q *Queue) Result(rec JobRecord) ([]byte, error) {
	id := rec.Spec.ID
	if data, ok := q.results.get(id); ok {
		return data, nil
	}
	data, err := renderResult(&rec, q.events.History(id))
	if err != nil {
		return nil, err
	}
	q.results.put(id, data)
	return data, nil
}
