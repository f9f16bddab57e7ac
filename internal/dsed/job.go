// Package dsed implements the DSE daemon: a long-running HTTP/JSON service
// that accepts design-space-sweep jobs, shards their design points across a
// guard-supervised worker fleet, and is crash-safe end to end. It composes
// the reliability layers the repository already provides — atomic artifacts
// (internal/artifact), JSONL sweep checkpoints (internal/dse), supervised
// workers, budgets and signal discipline (internal/guard) — into one
// service whose headline property is robustness:
//
//   - Each job's only durable record is its event journal: an append-only
//     file of CRC32-Castagnoli-framed events, fsynced per event. The first
//     event carries the job spec, every state transition is an event, and
//     every completed design point's record rides on a progress event, so
//     a kill -9 at any instant leaves a valid prefix that recovery folds
//     back into the job, and bit rot is detected rather than silently
//     re-animating a damaged job.
//   - Restart resumes a job by sweeping only the points its journal does
//     not hold: no duplicates and no lost jobs, and the final report is
//     byte-identical to an uninterrupted run.
//   - Admission control bounds the queue depth and per-tenant in-flight
//     work (429 + Retry-After when saturated), and a heap-budget Governor
//     sheds sweep workers before the process OOMs.
//   - Concurrent jobs referencing the same trace share one decoded
//     PreparedTrace through a content-addressed, single-flight cache that
//     detects in-memory corruption and re-decodes instead of failing jobs.
//   - SIGTERM drains gracefully: intake stops, in-flight jobs requeue,
//     the process exits 0; a second signal force-exits with
//     artifact.ExitForced.
//   - Every observable job transition — state changes, sweep progress,
//     per-point failures, the done commit — is journaled durably (CRC-framed
//     append-only, fsynced before publication) and streamed over SSE with
//     Last-Event-ID resume, so a client's view of a job survives both
//     daemon crashes and its own disconnects with no gaps and no
//     duplicates; slow consumers are evicted, never waited on.
package dsed

import (
	"encoding/json"
	"errors"
	"fmt"

	"graphdse/internal/artifact"
	"graphdse/internal/dse"
)

// JobState is the lifecycle of a job in the durable queue.
//
//	queued ──▶ running ──▶ done
//	   │          │  ├───▶ failed
//	   │          │  └───▶ quarantined
//	   └──────────┴─────▶ cancelled
//
// A daemon crash reverses running back to queued at recovery (the journal
// preserves completed points); every other transition is one-way and
// journaled before it is visible to clients.
type JobState string

const (
	StateQueued  JobState = "queued"
	StateRunning JobState = "running"
	StateDone    JobState = "done"
	// StateFailed marks jobs whose sweep errored terminally (deadline,
	// too few survivors, trace unavailable).
	StateFailed JobState = "failed"
	// StateQuarantined marks jobs pushed under their survivorship floor by
	// the physical-invariant gate: the sweep completed, but its results
	// were physically impossible and must not reach any dataset. The job
	// is kept for forensics rather than retried — re-running impossible
	// physics yields impossible physics.
	StateQuarantined JobState = "quarantined"
	StateCancelled   JobState = "cancelled"
)

// Terminal reports whether the state is an end state.
func (s JobState) Terminal() bool {
	switch s {
	case StateDone, StateFailed, StateQuarantined, StateCancelled:
		return true
	}
	return false
}

// WorkloadSpec synthesizes the paper's BFS workload trace inside the
// daemon. It is fully deterministic, which makes it content-addressable in
// the trace cache: two jobs with equal specs share one decoded trace.
type WorkloadSpec struct {
	Vertices   int   `json:"vertices,omitempty"`
	EdgeFactor int   `json:"edge_factor,omitempty"`
	Seed       int64 `json:"seed,omitempty"`
	Repeats    int   `json:"repeats,omitempty"`
}

// JobSpec is the client-submitted description of one sweep job. Exactly one
// trace source (Workload or TracePath) must be set.
type JobSpec struct {
	// ID is the client's idempotency key; the daemon generates one when
	// empty. Re-submitting an identical (ID, spec) pair returns the
	// existing job instead of enqueueing a duplicate.
	ID string `json:"id,omitempty"`
	// Tenant attributes the job for per-tenant in-flight caps ("default"
	// when empty).
	Tenant string `json:"tenant,omitempty"`
	// Workload synthesizes the trace in-process.
	Workload *WorkloadSpec `json:"workload,omitempty"`
	// TracePath replays a binary trace artifact from disk (TRACEBIN v1/v2).
	TracePath string `json:"trace_path,omitempty"`
	// Space overrides the paper's 416-point design space.
	Space *dse.SpaceParams `json:"space,omitempty"`

	// TimeoutSec bounds the whole job's wall clock (0 = none).
	TimeoutSec int `json:"timeout_sec,omitempty"`
	// PointTimeoutMS bounds each design point's simulation (0 = none).
	PointTimeoutMS int `json:"point_timeout_ms,omitempty"`
	// Retries bounds re-attempts for transient point failures.
	Retries int `json:"retries,omitempty"`
	// MinSurvivors fails (or, post-gate, quarantines) the job when fewer
	// points survive.
	MinSurvivors int `json:"min_survivors,omitempty"`
	// Workers caps the job's sweep parallelism (further capped by the
	// daemon and its Governor).
	Workers int `json:"workers,omitempty"`

	// FailureRate injects the paper's deterministic simulation-crash rate
	// (chaos/testing; 0 disables).
	FailureRate float64 `json:"failure_rate,omitempty"`
	FailureSeed uint64  `json:"failure_seed,omitempty"`
	// PointDelayMS sleeps after each completed point. It exists for
	// crash-recovery drills (the CI smoke job and subprocess tests kill
	// the daemon mid-sweep at a deterministic pace); it has no effect on
	// results.
	PointDelayMS int `json:"point_delay_ms,omitempty"`
}

// specLimits bound client-supplied sizes so a single malicious or fat-
// fingered submission cannot balloon the daemon's memory.
const (
	maxSpecVertices = 1 << 20
	maxSpecRepeats  = 64
	maxSpecWorkers  = 256
	maxSpecRetries  = 16
)

// ErrBadSpec reports a job specification that fails validation; the wrapped
// detail names the offending field.
var ErrBadSpec = errors.New("dsed: invalid job spec")

// Validate checks the spec's structural invariants.
func (s *JobSpec) Validate() error {
	if (s.Workload == nil) == (s.TracePath == "") {
		return fmt.Errorf("%w: exactly one of workload or trace_path must be set", ErrBadSpec)
	}
	if w := s.Workload; w != nil {
		if w.Vertices < 0 || w.Vertices > maxSpecVertices {
			return fmt.Errorf("%w: vertices %d out of range [0,%d]", ErrBadSpec, w.Vertices, maxSpecVertices)
		}
		if w.EdgeFactor < 0 || w.EdgeFactor > 1024 {
			return fmt.Errorf("%w: edge_factor %d out of range", ErrBadSpec, w.EdgeFactor)
		}
		if w.Repeats < 0 || w.Repeats > maxSpecRepeats {
			return fmt.Errorf("%w: repeats %d out of range [0,%d]", ErrBadSpec, w.Repeats, maxSpecRepeats)
		}
	}
	if s.TimeoutSec < 0 || s.PointTimeoutMS < 0 || s.PointDelayMS < 0 {
		return fmt.Errorf("%w: negative timeout", ErrBadSpec)
	}
	if s.Retries < 0 || s.Retries > maxSpecRetries {
		return fmt.Errorf("%w: retries %d out of range [0,%d]", ErrBadSpec, s.Retries, maxSpecRetries)
	}
	if s.Workers < 0 || s.Workers > maxSpecWorkers {
		return fmt.Errorf("%w: workers %d out of range [0,%d]", ErrBadSpec, s.Workers, maxSpecWorkers)
	}
	if s.FailureRate < 0 || s.FailureRate >= 1 {
		return fmt.Errorf("%w: failure_rate %v out of [0,1)", ErrBadSpec, s.FailureRate)
	}
	if s.MinSurvivors < 0 {
		return fmt.Errorf("%w: negative min_survivors", ErrBadSpec)
	}
	return nil
}

// tenant returns the effective tenant name.
func (s *JobSpec) tenant() string {
	if s.Tenant == "" {
		return "default"
	}
	return s.Tenant
}

// points enumerates the spec's design space (the paper's 416 points when
// Space is unset).
func (s *JobSpec) points() []dse.DesignPoint {
	var space dse.SpaceParams
	if s.Space != nil {
		space = *s.Space
	}
	return dse.EnumerateSpace(space)
}

// Digest is the canonical content hash of the spec (ID excluded), used for
// idempotent re-submission: same ID + same digest is the same job.
func (s *JobSpec) Digest() (uint32, error) {
	c := *s
	c.ID = ""
	b, err := json.Marshal(&c)
	if err != nil {
		return 0, err
	}
	return artifact.Checksum(b), nil
}

// JobRecord is the per-job state: the spec plus everything the daemon must
// remember across a crash. It is never written as such: recovery rebuilds
// it by folding the job's event journal (see foldJournal).
type JobRecord struct {
	Spec  JobSpec  `json:"spec"`
	State JobState `json:"state"`
	// SpecDigest pins the content hash used for idempotent re-submission.
	SpecDigest uint32 `json:"spec_digest"`
	// Attempt counts queued→running transitions: 1 for a first run, +1 for
	// every crash-recovery resume.
	Attempt int `json:"attempt,omitempty"`
	// SubmitSeq orders recovery re-enqueueing (FIFO across restarts).
	SubmitSeq uint64 `json:"submit_seq"`
	Error     string `json:"error,omitempty"`

	Done        int `json:"done,omitempty"`
	Total       int `json:"total,omitempty"`
	Survivors   int `json:"survivors,omitempty"`
	Quarantined int `json:"quarantined,omitempty"`
	// TraceEvents is the done event's trace event count (see
	// Event.TraceEvents).
	TraceEvents int64 `json:"trace_events,omitempty"`
}
