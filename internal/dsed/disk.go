package dsed

import (
	"context"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"graphdse/internal/artifact"
)

// Storage-degradation sentinels. The HTTP layer maps ErrSpoolPressure to
// 507 Insufficient Storage and ErrDegraded to 503 Service Unavailable, both
// with Retry-After: explicit backpressure a well-behaved client (and the
// dsedclient follower) turns into a paced retry.
var (
	// ErrSpoolPressure reports a spool over its soft watermark: new
	// submissions are shed until the janitor (or the operator) frees space.
	ErrSpoolPressure = errors.New("dsed: spool over disk watermark")
	// ErrDegraded reports read-only degraded mode: the disk is full past
	// the hard watermark or persistently failing writes. Running jobs
	// finish best-effort, reads and event streams still serve, but nothing
	// new is admitted until a recovery probe succeeds.
	ErrDegraded = errors.New("dsed: storage degraded, read-only")
)

// DiskMode is the storage substrate's health state.
type DiskMode string

const (
	// DiskOK: full service.
	DiskOK DiskMode = "ok"
	// DiskPressure: spool over the soft watermark; submissions shed (507),
	// everything else serves.
	DiskPressure DiskMode = "pressure"
	// DiskDegraded: read-only. Entered on the hard watermark, on ENOSPC,
	// or on a streak of write failures; left only when a probe write
	// succeeds and usage is back under the hard watermark.
	DiskDegraded DiskMode = "degraded"
)

// DiskPolicy bounds the spool and tunes degradation. Zero values disable
// the watermarks; failure-driven degradation is always armed because a
// daemon that keeps accepting work it cannot persist is lying to clients.
type DiskPolicy struct {
	// SoftBytes sheds new submissions once the spool exceeds it (0 = off).
	SoftBytes int64
	// HardBytes enters read-only degraded mode once exceeded (0 = off).
	HardBytes int64
	// SoftFiles/HardFiles are the file-count analogues (0 = off).
	SoftFiles int
	HardFiles int
	// FailureStreak is the consecutive-write-failure count that degrades
	// the daemon for non-ENOSPC errors (default 3); ENOSPC degrades
	// immediately, because retrying into a full disk cannot help.
	FailureStreak int
	// ProbeInterval paces the usage rescans and, while degraded, the
	// recovery probe writes (default 2s).
	ProbeInterval time.Duration
}

func (p *DiskPolicy) fill() {
	if p.FailureStreak <= 0 {
		p.FailureStreak = 3
	}
	if p.ProbeInterval <= 0 {
		p.ProbeInterval = 2 * time.Second
	}
}

// DiskStatus is the governor's observability snapshot (/statusz, /healthz).
type DiskStatus struct {
	Mode       DiskMode `json:"mode"`
	Cause      string   `json:"cause,omitempty"`
	SpoolBytes int64    `json:"spool_bytes"`
	SpoolFiles int      `json:"spool_files"`
	SoftBytes  int64    `json:"soft_bytes,omitempty"`
	HardBytes  int64    `json:"hard_bytes,omitempty"`
	// WriteFailures counts failed durable writes observed process-wide.
	WriteFailures int64 `json:"write_failures"`
	// Shed counts submissions refused for disk pressure or degradation.
	Shed int64 `json:"shed"`
	// Probes/ProbeFailures count recovery probe writes while degraded.
	Probes        int64 `json:"probes"`
	ProbeFailures int64 `json:"probe_failures"`
	// Recoveries counts degraded→writable transitions.
	Recoveries int64  `json:"recoveries"`
	LastError  string `json:"last_error,omitempty"`
}

// DiskGovernor watches the spool the way guard.Governor watches the heap:
// it tracks usage against watermarks, observes every durable write's
// outcome, degrades the daemon to read-only before a sick disk can corrupt
// state or lie to clients, and probes its way back to full service once
// writes succeed again.
type DiskGovernor struct {
	fs     artifact.FS
	dir    string
	policy DiskPolicy

	mu sync.Mutex
	// mode is guarded by mu.
	mode DiskMode
	// cause is guarded by mu.
	cause string
	// streak is guarded by mu.
	streak int
	// usageBytes is guarded by mu.
	usageBytes int64
	// usageFiles is guarded by mu.
	usageFiles int
	// lastErr is guarded by mu.
	lastErr string

	// writeFailures is guarded by mu.
	writeFailures int64
	// shed is guarded by mu.
	shed int64
	// probes is guarded by mu.
	probes int64
	// probeFails is guarded by mu.
	probeFails int64
	// recoveries is guarded by mu.
	recoveries int64

	// writable is closed while writes are allowed and replaced with an
	// open channel on degradation, so waiters block exactly while
	// degraded; the field itself is guarded by mu.
	writable chan struct{}
}

// NewDiskGovernor builds a governor over the spool at dir.
func NewDiskGovernor(fsys artifact.FS, dir string, policy DiskPolicy) *DiskGovernor {
	policy.fill()
	if fsys == nil {
		fsys = artifact.OS
	}
	w := make(chan struct{})
	close(w)
	return &DiskGovernor{fs: fsys, dir: dir, policy: policy, mode: DiskOK, writable: w}
}

// Mode returns the current health state.
func (g *DiskGovernor) Mode() DiskMode {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.mode
}

// Status snapshots the governor.
func (g *DiskGovernor) Status() DiskStatus {
	g.mu.Lock()
	defer g.mu.Unlock()
	return DiskStatus{
		Mode:          g.mode,
		Cause:         g.cause,
		SpoolBytes:    g.usageBytes,
		SpoolFiles:    g.usageFiles,
		SoftBytes:     g.policy.SoftBytes,
		HardBytes:     g.policy.HardBytes,
		WriteFailures: g.writeFailures,
		Shed:          g.shed,
		Probes:        g.probes,
		ProbeFailures: g.probeFails,
		Recoveries:    g.recoveries,
		LastError:     g.lastErr,
	}
}

// Admit gates one submission: nil at full service, ErrSpoolPressure over
// the soft watermark, ErrDegraded in read-only mode.
func (g *DiskGovernor) Admit() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	switch g.mode {
	case DiskDegraded:
		g.shed++
		return fmt.Errorf("%w: %s", ErrDegraded, g.cause)
	case DiskPressure:
		g.shed++
		return fmt.Errorf("%w: %s", ErrSpoolPressure, g.cause)
	}
	return nil
}

// Writable reports whether durable writes are currently expected to work.
func (g *DiskGovernor) Writable() bool { return g.Mode() != DiskDegraded }

// AwaitWritable blocks until the governor leaves degraded mode or ctx
// ends, reporting which happened. Running jobs use it to park a failed
// journal append until the disk heals instead of discarding finished work.
func (g *DiskGovernor) AwaitWritable(ctx context.Context) bool {
	for {
		g.mu.Lock()
		ch := g.writable
		g.mu.Unlock()
		select {
		case <-ch:
			return true
		case <-ctx.Done():
			return false
		}
	}
}

// ObserveWrite feeds one durable write's outcome into the health model.
// Every event-journal append reports here: ENOSPC degrades immediately,
// other errors degrade after a streak, and any success both resets the
// streak and — because a real committed write is at least as convincing as
// a probe — can clear degraded mode when usage allows.
func (g *DiskGovernor) ObserveWrite(err error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if err == nil {
		g.streak = 0
		if g.mode == DiskDegraded && !g.overHardLocked() {
			g.recoverLocked("write succeeded")
		}
		return
	}
	g.writeFailures++
	g.lastErr = err.Error()
	g.streak++
	switch {
	case errors.Is(err, syscall.ENOSPC):
		g.degradeLocked("enospc: " + err.Error())
	case g.streak >= g.policy.FailureStreak:
		g.degradeLocked(fmt.Sprintf("%d consecutive write failures, last: %v", g.streak, err))
	}
}

// overHardLocked reports hard-watermark breach on the last usage scan.
func (g *DiskGovernor) overHardLocked() bool {
	return (g.policy.HardBytes > 0 && g.usageBytes >= g.policy.HardBytes) ||
		(g.policy.HardFiles > 0 && g.usageFiles >= g.policy.HardFiles)
}

func (g *DiskGovernor) overSoftLocked() bool {
	return (g.policy.SoftBytes > 0 && g.usageBytes >= g.policy.SoftBytes) ||
		(g.policy.SoftFiles > 0 && g.usageFiles >= g.policy.SoftFiles)
}

// degradeLocked enters read-only mode (idempotent).
func (g *DiskGovernor) degradeLocked(cause string) {
	if g.mode == DiskDegraded {
		return
	}
	g.mode = DiskDegraded
	g.cause = cause
	g.writable = make(chan struct{})
}

// recoverLocked leaves degraded mode for whatever usage warrants.
func (g *DiskGovernor) recoverLocked(how string) {
	g.recoveries++
	g.streak = 0
	close(g.writable)
	if g.overSoftLocked() {
		g.mode = DiskPressure
		g.cause = fmt.Sprintf("spool %d bytes / %d files over soft watermark", g.usageBytes, g.usageFiles)
	} else {
		g.mode = DiskOK
		g.cause = ""
	}
	_ = how
}

// Refresh rescans spool usage and applies the watermarks. Degraded mode is
// never cleared here — only a successful write (real or probe) proves the
// disk works again.
func (g *DiskGovernor) Refresh() {
	bytes, files := g.scanUsage()
	g.mu.Lock()
	defer g.mu.Unlock()
	g.usageBytes, g.usageFiles = bytes, files
	if g.mode == DiskDegraded {
		return
	}
	switch {
	case g.overHardLocked():
		g.degradeLocked(fmt.Sprintf("spool %d bytes / %d files over hard watermark", bytes, files))
	case g.overSoftLocked():
		g.mode = DiskPressure
		g.cause = fmt.Sprintf("spool %d bytes / %d files over soft watermark", bytes, files)
	default:
		g.mode = DiskOK
		g.cause = ""
	}
}

// scanUsage sums bytes and file counts across the spool tree (depth 2: the
// root plus its subdirectories — the fixed spool layout).
func (g *DiskGovernor) scanUsage() (int64, int) {
	var bytes int64
	var files int
	var walk func(dir string, depth int)
	walk = func(dir string, depth int) {
		ents, err := g.fs.ReadDir(dir)
		if err != nil {
			return
		}
		for _, e := range ents {
			if e.IsDir() {
				if depth > 0 {
					walk(filepath.Join(dir, e.Name()), depth-1)
				}
				continue
			}
			info, ierr := e.Info()
			if ierr != nil {
				continue
			}
			files++
			bytes += info.Size()
		}
	}
	walk(g.dir, 2)
	return bytes, files
}

// Probe attempts one small durable write in the spool root and reports
// whether the disk accepted it. While degraded, a successful probe with
// usage back under the hard watermark restores service.
func (g *DiskGovernor) Probe() bool {
	path := filepath.Join(g.dir, ".diskprobe")
	err := artifact.WriteFileAtomicFS(g.fs, path, 0o644, func(w io.Writer) error {
		_, werr := io.WriteString(w, "probe\n")
		return werr
	})
	if err == nil {
		_ = g.fs.Remove(path)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	g.probes++
	if err != nil {
		g.probeFails++
		g.lastErr = err.Error()
		return false
	}
	if g.mode == DiskDegraded && !g.overHardLocked() {
		g.recoverLocked("probe succeeded")
	}
	return true
}

// Run drives the rescan/probe loop until ctx ends.
func (g *DiskGovernor) Run(ctx context.Context) {
	g.Refresh()
	ticker := time.NewTicker(g.policy.ProbeInterval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			g.Refresh()
			if g.Mode() == DiskDegraded {
				g.Probe()
			}
		}
	}
}
