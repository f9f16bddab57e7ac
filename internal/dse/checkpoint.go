package dse

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"sync"

	"graphdse/internal/artifact"
	"graphdse/internal/memsim"
)

// checkpointRecord is the JSON-lines on-disk form of one terminal
// RunRecord. Records are keyed by the point's stable ID; the full
// DesignPoint is reconstructed from the live design space on load, so a
// checkpoint stays valid across process restarts as long as the space
// enumeration is unchanged.
type checkpointRecord struct {
	ID       string `json:"id"`
	Failed   bool   `json:"failed,omitempty"`
	Class    string `json:"class,omitempty"`
	Attempts int    `json:"attempts"`
	Err      string `json:"err,omitempty"`
	// Result holds the full simulator output for survivors. LifetimeInf
	// flags a +Inf LifetimeYears (write-free runs), which JSON cannot
	// encode directly.
	Result      *memsim.Result `json:"result,omitempty"`
	LifetimeInf bool           `json:"lifetime_inf,omitempty"`
}

// EncodeRecord renders one terminal record as its canonical checkpoint
// line (no trailing newline). Deterministic for a given record, which is
// what makes resumed sweeps byte-comparable to uninterrupted ones.
func EncodeRecord(r RunRecord) ([]byte, error) {
	cr := checkpointRecord{
		ID:       r.Point.ID(),
		Failed:   r.Failed,
		Attempts: r.Attempts,
	}
	if r.Failed {
		cr.Class = r.FaultClass.String()
		if r.Err != nil {
			cr.Err = r.Err.Error()
		}
	} else if r.Result != nil {
		res := *r.Result
		if math.IsInf(res.LifetimeYears, 1) {
			res.LifetimeYears = 0
			cr.LifetimeInf = true
		}
		cr.Result = &res
	}
	return json.Marshal(cr)
}

// CanonicalRecords renders terminal records in their canonical checkpoint
// encoding, sorted by point ID. Because EncodeRecord is deterministic and
// records adopted from a checkpoint round-trip through the same encoding,
// the canonical form of a resumed sweep is byte-identical to that of an
// uninterrupted one — the property the daemon's crash-recovery contract
// (and its subprocess tests) is built on.
func CanonicalRecords(records []RunRecord) ([]json.RawMessage, error) {
	out := make([]json.RawMessage, 0, len(records))
	for _, r := range records {
		line, err := EncodeRecord(r)
		if err != nil {
			return nil, err
		}
		out = append(out, json.RawMessage(line))
	}
	sort.Slice(out, func(i, j int) bool { return bytes.Compare(out[i], out[j]) < 0 })
	return out, nil
}

// DecodeCanonicalRecords parses canonical record lines — the encoding
// CanonicalRecords produces and a sealed daemon report carries — back into
// RunRecords against the design space they were swept from. It is the read
// side of the daemon's query endpoints: Pareto fronts and recommendations
// are recomputed from the sealed report rather than from live sweep state.
// Unknown point IDs and structurally invalid lines are rejected outright;
// a sealed report is never salvaged, because its seal asserts completeness.
func DecodeCanonicalRecords(lines []json.RawMessage, points []DesignPoint) ([]RunRecord, error) {
	byID := make(map[string]DesignPoint, len(points))
	for _, p := range points {
		byID[p.ID()] = p
	}
	out := make([]RunRecord, 0, len(lines))
	for i, line := range lines {
		rec, err := decodeRecord(line, byID)
		if err != nil {
			return nil, fmt.Errorf("dse: canonical record %d: %w", i, err)
		}
		out = append(out, rec)
	}
	return out, nil
}

// decodeRecord parses one checkpoint line back into a RunRecord. byID maps
// point IDs of the live design space; lines for unknown points, survivor
// lines without a result, and survivor results failing metric validation
// are all rejected as corrupt.
func decodeRecord(line []byte, byID map[string]DesignPoint) (RunRecord, error) {
	var cr checkpointRecord
	if err := json.Unmarshal(line, &cr); err != nil {
		return RunRecord{}, err
	}
	if cr.ID == "" {
		return RunRecord{}, errors.New("dse: checkpoint line missing id")
	}
	p, ok := byID[cr.ID]
	if !ok {
		return RunRecord{}, fmt.Errorf("dse: checkpoint id %q not in design space", cr.ID)
	}
	rec := RunRecord{
		Point:          p,
		Failed:         cr.Failed,
		Attempts:       cr.Attempts,
		FromCheckpoint: true,
	}
	if cr.Failed {
		rec.FaultClass = parseFaultClass(cr.Class)
		if cr.Err != "" {
			rec.Err = errors.New(cr.Err)
		}
		return rec, nil
	}
	if cr.Result == nil {
		return RunRecord{}, fmt.Errorf("dse: checkpoint survivor %q has no result", cr.ID)
	}
	if cr.LifetimeInf {
		cr.Result.LifetimeYears = math.Inf(1)
	}
	if err := cr.Result.ValidateMetrics(); err != nil {
		return RunRecord{}, fmt.Errorf("dse: checkpoint survivor %q: %w", cr.ID, err)
	}
	rec.Result = cr.Result
	return rec, nil
}

// CheckpointReport accounts for what a checkpoint load kept and dropped, so
// a resumed sweep can say exactly how much work a damaged checkpoint costs.
type CheckpointReport struct {
	Lines    int64 // non-empty lines seen
	Loaded   int64 // lines decoded into usable records
	Skipped  int64 // corrupt/stale lines dropped (re-run on resume)
	TornTail bool  // final line had no newline (torn append)
	// Sample quotes the first few skip reasons for diagnostics.
	Sample []string
}

const maxCheckpointSample = 8

func (r *CheckpointReport) addSkip(lineNo int64, err error) {
	r.Skipped++
	if len(r.Sample) < maxCheckpointSample {
		r.Sample = append(r.Sample, fmt.Sprintf("line %d: %v", lineNo, err))
	}
}

// Clean reports whether every line loaded and the file ended on a newline.
func (r *CheckpointReport) Clean() bool { return r.Skipped == 0 && !r.TornTail }

// String renders a one-line human-readable salvage note.
func (r *CheckpointReport) String() string {
	s := fmt.Sprintf("checkpoint: %d/%d lines loaded", r.Loaded, r.Lines)
	if r.Skipped > 0 {
		s += fmt.Sprintf(", %d skipped (will re-run)", r.Skipped)
	}
	if r.TornTail {
		s += ", torn final line"
	}
	return s
}

// LoadCheckpoint reads a JSON-lines checkpoint and returns the usable
// records keyed by point ID plus a salvage report. When the same point
// appears on multiple lines the last one wins. Permissive (strict=false)
// skips any undecodable line — truncated writes, garbage, unknown points,
// invalid metrics — and resume simply re-runs those points; strict fails on
// the first one. A torn final line (no trailing newline), the signature of
// a crash mid-append, is tolerated and flagged in the report in both modes
// because it is exactly the damage checkpoints exist to absorb.
func LoadCheckpoint(path string, points []DesignPoint, strict bool) (map[string]RunRecord, *CheckpointReport, error) {
	rep := &CheckpointReport{}
	f, err := os.Open(path)
	if err != nil {
		return nil, rep, err
	}
	defer f.Close()
	byID := make(map[string]DesignPoint, len(points))
	for _, p := range points {
		byID[p.ID()] = p
	}
	out := map[string]RunRecord{}
	// Read lines manually: bufio.Scanner hides whether the final line was
	// newline-terminated, which is the torn-tail signal.
	br := bufio.NewReaderSize(f, 64*1024)
	var lineNo int64
	for {
		line, rerr := br.ReadBytes('\n')
		terminated := rerr == nil
		if rerr != nil && rerr != io.EOF {
			return out, rep, rerr
		}
		trimmed := bytes.TrimSpace(line)
		if len(trimmed) > 0 {
			lineNo++
			rep.Lines++
			rec, derr := decodeRecord(trimmed, byID)
			switch {
			case derr == nil:
				rep.Loaded++
				out[rec.Point.ID()] = rec
				if !terminated {
					// Complete record, missing only its newline.
					rep.TornTail = true
				}
			case !terminated:
				// Torn final line: tolerated in both modes.
				rep.TornTail = true
				rep.addSkip(lineNo, fmt.Errorf("torn final line: %w", derr))
			case strict:
				rep.addSkip(lineNo, derr)
				return out, rep, fmt.Errorf("dse: checkpoint line %d: %w", lineNo, derr)
			default:
				rep.addSkip(lineNo, derr)
			}
		}
		if rerr == io.EOF {
			return out, rep, nil
		}
	}
}

// checkpointWriter appends terminal records to the checkpoint file, one
// JSON line per record, each written in a single Write call so concurrent
// workers never interleave partial lines.
type checkpointWriter struct {
	mu sync.Mutex
	f  artifact.File
}

// openCheckpoint opens the checkpoint for appending; without resume the
// file is truncated so a fresh sweep starts clean.
func openCheckpoint(path string, resume bool) (*checkpointWriter, error) {
	flags := os.O_CREATE | os.O_WRONLY | os.O_APPEND
	if !resume {
		flags |= os.O_TRUNC
	}
	f, err := artifact.OS.OpenFile(path, flags, 0o644)
	if err != nil {
		return nil, err
	}
	return &checkpointWriter{f: f}, nil
}

// Append writes one record. Errors are returned but the sweep treats the
// checkpoint as best-effort: a failed append degrades resumability, not
// correctness.
func (w *checkpointWriter) Append(r RunRecord) error {
	line, err := EncodeRecord(r)
	if err != nil {
		return err
	}
	line = append(line, '\n')
	w.mu.Lock()
	defer w.mu.Unlock()
	_, err = w.f.Write(line)
	return err
}

func (w *checkpointWriter) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.f.Close()
}
