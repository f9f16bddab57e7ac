package main

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"graphdse/internal/artifact"
)

// span is one timed call into a layer. Spans of one iteration or daemon job
// share Group; Parent is the span that caused this one (0 for a root).
type span struct {
	ID     int64   `json:"id"`
	Parent int64   `json:"parent,omitempty"`
	Group  string  `json:"group"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

func (s span) dur() float64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil tracer, or one
// that is switched off, records nothing, so untraced iterations run the
// same code path without the cost of keeping spans.
type tracer struct {
	epoch time.Time
	on    atomic.Bool
	ids   atomic.Int64

	mu sync.Mutex
	// spans is guarded by mu.
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) enabled() bool { return t != nil && t.on.Load() }

// reserve hands out a span id up front, for a parent whose children finish
// before it does.
func (t *tracer) reserve() int64 {
	if !t.enabled() {
		return 0
	}
	return t.ids.Add(1)
}

// add records a finished span under a reserved id (0 draws a new one) and
// returns its id.
func (t *tracer) add(id, parent int64, group, name string, start, end time.Time) int64 {
	if !t.enabled() {
		return 0
	}
	if id == 0 {
		id = t.ids.Add(1)
	}
	s := span{
		ID: id, Parent: parent, Group: group, Name: name,
		Start: start.Sub(t.epoch).Seconds(), End: end.Sub(t.epoch).Seconds(),
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return id
}

// snapshot returns the recorded spans in id order.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// writeSpans writes spans as JSON lines.
func writeSpans(w io.Writer, spans []span) error {
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}

// saveSpans writes the span file atomically.
func saveSpans(path string, spans []span) error {
	return artifact.WriteFileAtomic(path, 0o644, func(w io.Writer) error {
		return writeSpans(w, spans)
	})
}

// shares reports, for each child span name, the share of its parents'
// total duration that children of that name cover, over every parent span
// named parentName. It is the per-layer breakdown of one iteration or job.
func shares(spans []span, parentName string) map[string]float64 {
	parents := map[int64]bool{}
	var total float64
	for _, s := range spans {
		if s.Name == parentName {
			parents[s.ID] = true
			total += s.dur()
		}
	}
	out := map[string]float64{}
	if total <= 0 {
		return out
	}
	for _, s := range spans {
		if parents[s.Parent] {
			out[s.Name] += s.dur() / total
		}
	}
	return out
}
