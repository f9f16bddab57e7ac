// Package guard is the supervised-execution runtime under the paper's
// long-running pipeline. The campaign the paper describes (BFS trace →
// convert → 416-configuration memory-simulator sweep → surrogate training)
// runs unattended for hours, and surrogate-driven co-design only works if
// the campaign survives hangs, memory exhaustion, and operator kills while
// producing only trustworthy data. guard provides the three mechanisms the
// rest of the repository builds on:
//
//   - Stage supervision (stage.go, pipeline.go): each pipeline stage runs
//     under a watchdog fed by a progress heartbeat; a stalled heartbeat or
//     an expired deadline cancels the stage via its context (never the
//     process) and surfaces as a structured *Error with Class Timeout.
//     Panics inside a stage are captured as *PanicError (Class Fatal).
//
//   - Resource governance (budget.go): a Budget samples the heap against a
//     soft limit and escalates a pressure level; consumers (the sweep
//     engine, the surrogate-training pool, the trace converter) step their
//     worker counts down under pressure instead of dying, and every
//     downshift is recorded in the run report.
//
//   - A unified error taxonomy (Class): the sweep engine's transient and
//     panic failures and the artifact layer's corruption sentinels all map
//     onto one five-way classification, so every layer of the pipeline
//     reports failures in the same vocabulary and scripts can branch on a
//     single exit-code contract.
package guard

import (
	"context"
	"errors"
	"fmt"

	"graphdse/internal/artifact"
)

// Class is the unified failure taxonomy every pipeline layer wraps into.
type Class int

const (
	// None means no failure.
	None Class = iota
	// Transient marks failures worth retrying: the operation may succeed
	// unchanged on a second attempt (injected transient faults, momentary
	// environment errors).
	Transient
	// Timeout marks work cancelled by a watchdog or deadline: a stalled
	// heartbeat, an expired stage or pipeline deadline, or a per-point
	// simulation deadline.
	Timeout
	// Corrupt marks data that is present but provably damaged or physically
	// impossible — checksum mismatches, truncated artifacts, and metrics
	// that fail validation. Retrying will not help; the input must be
	// regenerated or salvaged.
	Corrupt
	// Fatal marks non-retryable programming or environment failures,
	// including captured panics.
	Fatal
	// Canceled marks work stopped by caller intent (Ctrl-C, SIGTERM, parent
	// context cancellation) rather than by a fault.
	Canceled
)

// String names the class for reports and logs.
func (c Class) String() string {
	switch c {
	case None:
		return "none"
	case Transient:
		return "transient"
	case Timeout:
		return "timeout"
	case Corrupt:
		return "corrupt"
	case Fatal:
		return "fatal"
	case Canceled:
		return "canceled"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Retryable reports whether work failing with this class may succeed
// unchanged on a retry.
func (c Class) Retryable() bool { return c == Transient }

// ErrTransient marks failures worth retrying. It is the canonical sentinel
// the sweep engine's retry loop tests for (dse.ErrTransient aliases it).
var ErrTransient = errors.New("guard: transient fault")

// ErrStalled reports a stage whose heartbeat went silent past the
// watchdog's patience: the stage was cancelled via its context.
var ErrStalled = errors.New("guard: heartbeat stalled")

// ErrAbandoned reports a stage that ignored its cancellation past the grace
// period; its goroutine was abandoned (Go cannot kill it) and its eventual
// result will be discarded.
var ErrAbandoned = errors.New("guard: stage abandoned after cancellation grace")

// PanicError wraps a panic recovered inside supervised work so the crash of
// one stage or design point becomes a structured record instead of killing
// the process.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("guard: panic: %v", e.Value)
}

// Error is a classified, stage-attributed pipeline failure.
type Error struct {
	// Stage names the pipeline stage that failed.
	Stage string
	// Class is the taxonomy classification.
	Class Class
	// Err is the underlying cause chain.
	Err error
}

func (e *Error) Error() string {
	return fmt.Sprintf("guard: stage %s: %s: %v", e.Stage, e.Class, e.Err)
}

func (e *Error) Unwrap() error { return e.Err }

// ClassOf classifies an arbitrary error onto the taxonomy. A wrapped *Error
// keeps its recorded class; otherwise sentinels from every pipeline layer
// are mapped: transient faults, deadline/watchdog expiry, artifact
// corruption/truncation, context cancellation. Unrecognized errors are
// Fatal; nil is None.
func ClassOf(err error) Class {
	if err == nil {
		return None
	}
	var ge *Error
	if errors.As(err, &ge) {
		return ge.Class
	}
	var pe *PanicError
	switch {
	case errors.As(err, &pe):
		return Fatal
	case errors.Is(err, ErrTransient):
		return Transient
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, ErrStalled), errors.Is(err, ErrAbandoned):
		return Timeout
	case errors.Is(err, artifact.ErrCorrupt), errors.Is(err, artifact.ErrTruncated):
		return Corrupt
	case errors.Is(err, context.Canceled):
		return Canceled
	default:
		return Fatal
	}
}
