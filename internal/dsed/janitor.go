package dsed

import (
	"context"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// RetentionPolicy bounds what the spool keeps for terminal jobs. Zero
// values disable the corresponding limit; live (queued/running) jobs are
// never touched.
type RetentionPolicy struct {
	// MaxAge garbage-collects terminal jobs whose journal was last
	// appended to longer ago (0 = keep forever).
	MaxAge time.Duration
	// MaxJobs keeps at most this many terminal jobs, oldest evicted first
	// (0 = unlimited).
	MaxJobs int
	// MaxBytes caps the terminal jobs' combined spool footprint, oldest
	// evicted first until under (0 = unlimited).
	MaxBytes int64
	// TempMaxAge garbage-collects orphaned atomic-write temp files older
	// than this — the residue of a crash mid-commit (default 1h).
	TempMaxAge time.Duration
	// Interval paces janitor sweeps (default 30s).
	Interval time.Duration
}

func (p *RetentionPolicy) fill() {
	if p.TempMaxAge <= 0 {
		p.TempMaxAge = time.Hour
	}
	if p.Interval <= 0 {
		p.Interval = 30 * time.Second
	}
}

// JanitorStats is the janitor's observability snapshot (/statusz).
type JanitorStats struct {
	Sweeps      int64 `json:"sweeps"`
	JobsRemoved int64 `json:"jobs_removed"`
	BytesFreed  int64 `json:"bytes_freed"`
	// Orphans counts spool files of unknown jobs collected (crash-mid-GC or
	// failed-submit residue); Temps counts stale atomic-write temps.
	Orphans   int64  `json:"orphans"`
	Temps     int64  `json:"temps"`
	Errors    int64  `json:"errors"`
	LastError string `json:"last_error,omitempty"`
	LastSweep string `json:"last_sweep,omitempty"`
}

// Janitor is the spool's lifecycle garbage collector: it applies the
// retention policy to terminal jobs, collects orphaned files left by
// crashes, and prunes stale atomic-write temps. Every deletion follows the
// safe order encoded in Queue.GCJob (journal first, result last), so a
// crash mid-sweep leaves only orphans the next sweep collects — never a
// job whose journal promises files that are gone.
type Janitor struct {
	q      *Queue
	policy RetentionPolicy

	mu sync.Mutex
	// stats is guarded by mu.
	stats JanitorStats
}

// NewJanitor builds a janitor over the queue's spool.
func NewJanitor(q *Queue, policy RetentionPolicy) *Janitor {
	policy.fill()
	return &Janitor{q: q, policy: policy}
}

// Stats snapshots the counters.
func (j *Janitor) Stats() JanitorStats {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.stats
}

// Policy returns the effective (default-filled) retention policy.
func (j *Janitor) Policy() RetentionPolicy { return j.policy }

// Run sweeps on the policy interval until ctx ends.
func (j *Janitor) Run(ctx context.Context) {
	ticker := time.NewTicker(j.policy.Interval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			j.Sweep()
		}
	}
}

// Sweep runs one full janitor pass: retention GC, orphan collection,
// stale-temp pruning. It is safe to call concurrently with submissions and
// running jobs.
func (j *Janitor) Sweep() {
	j.applyRetention()
	j.collectOrphans()
	j.pruneTemps()
	j.mu.Lock()
	j.stats.Sweeps++
	j.stats.LastSweep = time.Now().UTC().Format(time.RFC3339)
	j.mu.Unlock()
}

func (j *Janitor) fail(err error) {
	j.mu.Lock()
	j.stats.Errors++
	j.stats.LastError = err.Error()
	j.mu.Unlock()
}

// applyRetention GCs terminal jobs past the age/count/byte limits, oldest
// (by submission order) first.
func (j *Janitor) applyRetention() {
	p := j.policy
	if p.MaxAge <= 0 && p.MaxJobs <= 0 && p.MaxBytes <= 0 {
		return
	}
	type victim struct {
		id    string
		bytes int64
	}
	var terminal []victim
	var total int64
	now := time.Now()
	for _, rec := range j.q.List() { // submission-ordered
		if !rec.State.Terminal() {
			continue
		}
		id := rec.Spec.ID
		bytes := j.q.JobBytes(id)
		if p.MaxAge > 0 {
			if info, err := j.q.fs.Stat(j.q.journalPath(id)); err == nil && now.Sub(info.ModTime()) > p.MaxAge {
				j.gc(id)
				continue
			}
		}
		terminal = append(terminal, victim{id, bytes})
		total += bytes
	}
	i := 0
	for i < len(terminal) &&
		((p.MaxJobs > 0 && len(terminal)-i > p.MaxJobs) ||
			(p.MaxBytes > 0 && total > p.MaxBytes)) {
		j.gc(terminal[i].id)
		total -= terminal[i].bytes
		i++
	}
}

// gc removes one terminal job, recording the outcome.
func (j *Janitor) gc(id string) {
	freed, err := j.q.GCJob(id)
	if err != nil {
		j.fail(err)
		return
	}
	j.mu.Lock()
	j.stats.JobsRemoved++
	j.stats.BytesFreed += freed
	j.mu.Unlock()
}

// collectOrphans removes spool files whose job the queue does not know —
// the residue of a crash between GC steps or of a failed submission. The
// ownership check runs per candidate at removal time, under the lock
// Submit indexes jobs with (Queue.removeOrphan), so a submission racing
// the sweep never loses a file.
func (j *Janitor) collectOrphans() {
	scans := []struct{ dir, ext string }{
		{filepath.Join(j.q.dir, resultsDir), ".json"},
		{filepath.Join(j.q.dir, eventsDir), ".jsonl"},
	}
	for _, s := range scans {
		entries, err := j.q.fs.ReadDir(s.dir)
		if err != nil {
			continue
		}
		for _, e := range entries {
			job := jobOfFile(e.Name(), s.ext)
			if e.IsDir() || job == "" {
				continue
			}
			if j.q.removeOrphan(job, filepath.Join(s.dir, e.Name())) {
				j.mu.Lock()
				j.stats.Orphans++
				j.mu.Unlock()
			}
		}
	}
}

// pruneTemps removes atomic-write temp files (".<name>.tmp-*") older than
// the policy age across the spool tree — a crash mid-commit leaks exactly
// one, and the artifact layer never reuses them.
func (j *Janitor) pruneTemps() {
	dirs := []string{
		j.q.dir,
		filepath.Join(j.q.dir, resultsDir),
		filepath.Join(j.q.dir, eventsDir),
	}
	cutoff := time.Now().Add(-j.policy.TempMaxAge)
	for _, dir := range dirs {
		entries, err := j.q.fs.ReadDir(dir)
		if err != nil {
			continue
		}
		for _, e := range entries {
			name := e.Name()
			if e.IsDir() || !strings.HasPrefix(name, ".") || !strings.Contains(name, ".tmp-") {
				continue
			}
			info, ierr := e.Info()
			if ierr != nil || info.ModTime().After(cutoff) {
				continue
			}
			if rerr := j.q.fs.Remove(filepath.Join(dir, name)); rerr == nil {
				j.mu.Lock()
				j.stats.Temps++
				j.mu.Unlock()
			}
		}
	}
}
