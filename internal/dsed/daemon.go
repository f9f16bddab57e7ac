package dsed

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"graphdse/internal/artifact"
	"graphdse/internal/guard"
)

// Options configures one daemon instance.
type Options struct {
	// Addr is the listen address (":0" picks a free port; see Daemon.Addr).
	Addr string
	// Dir is the spool directory (event journals and results).
	Dir string

	Queue     QueueOptions
	Scheduler SchedulerOptions

	// Disk bounds spool usage and arms degraded-mode handling (see
	// DiskPolicy; failure-driven degradation is always on).
	Disk DiskPolicy
	// Retention bounds what the spool keeps for terminal jobs and paces
	// the janitor (see RetentionPolicy).
	Retention RetentionPolicy
	// FS is the filesystem all spool I/O goes through (nil = the real
	// filesystem). cmd/dsed threads a FaultFS here for chaos smokes.
	FS artifact.FS

	// HeapSoftBytes arms the memory governor: under pressure the fleet
	// sheds sweep workers instead of dying (0 = off).
	HeapSoftBytes uint64
	// SSEHeartbeat is the event-stream comment-heartbeat interval
	// (default 10s).
	SSEHeartbeat time.Duration
	// CacheEntries bounds the decoded-trace cache (default 4).
	CacheEntries int
	// DrainTimeout bounds the graceful-shutdown window (default 30s).
	DrainTimeout time.Duration
	// AddrFile, when set, receives the bound listen address (written
	// atomically) once the daemon is serving — the handshake scripts and
	// subprocess tests use with ":0".
	AddrFile string
	// Logf receives operational log lines (nil discards them).
	Logf func(format string, args ...any)
}

func (o *Options) fill() {
	if o.Addr == "" {
		o.Addr = "127.0.0.1:0"
	}
	if o.Dir == "" {
		o.Dir = "dsed-spool"
	}
	if o.DrainTimeout <= 0 {
		o.DrainTimeout = 30 * time.Second
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	if o.Scheduler.Logf == nil {
		o.Scheduler.Logf = o.Logf
	}
}

// Daemon composes the durable queue, the trace cache, the supervised
// scheduler, and the HTTP server into one crash-safe service.
type Daemon struct {
	opts    Options
	q       *Queue
	cache   *TraceCache
	gov     *guard.Governor
	disk    *DiskGovernor
	janitor *Janitor
	sched   *Scheduler
	srv     *Server

	mu sync.Mutex
	// addr is guarded by mu.
	addr string
}

// New opens the spool (running crash recovery) and wires the daemon. The
// recovery report is available via Recovery before Run is called.
func New(opts Options) (*Daemon, error) {
	opts.fill()
	if opts.FS != nil && opts.Queue.FS == nil {
		opts.Queue.FS = opts.FS
	}
	q, err := OpenQueue(opts.Dir, opts.Queue)
	if err != nil {
		return nil, err
	}
	var gov *guard.Governor
	if opts.HeapSoftBytes > 0 {
		gov = guard.NewGovernor(guard.Budget{HeapSoftBytes: opts.HeapSoftBytes})
	}
	disk := NewDiskGovernor(q.FS(), opts.Dir, opts.Disk)
	q.AttachDisk(disk)
	janitor := NewJanitor(q, opts.Retention)
	cache := NewTraceCache(opts.CacheEntries)
	sched := NewScheduler(q, cache, gov, opts.Scheduler)
	srv := NewServer(q, sched, cache, gov)
	srv.SetHeartbeat(opts.SSEHeartbeat)
	srv.SetDisk(disk)
	srv.SetJanitor(janitor)
	return &Daemon{
		opts:    opts,
		q:       q,
		cache:   cache,
		gov:     gov,
		disk:    disk,
		janitor: janitor,
		sched:   sched,
		srv:     srv,
	}, nil
}

// Disk exposes the disk governor (tests and embedding callers).
func (d *Daemon) Disk() *DiskGovernor { return d.disk }

// Janitor exposes the spool janitor (tests and embedding callers).
func (d *Daemon) Janitor() *Janitor { return d.janitor }

// Recovery returns the Open-time recovery report.
func (d *Daemon) Recovery() *RecoveryReport { return d.q.Recovery() }

// Queue exposes the underlying queue (tests and embedding callers).
func (d *Daemon) Queue() *Queue { return d.q }

// Addr returns the bound listen address once Run is serving ("" before).
func (d *Daemon) Addr() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.addr
}

// Run serves until ctx is cancelled, then drains: intake stops (submissions
// get 503), the scheduler's in-flight jobs are cancelled — each journals
// its completed points and is durably requeued — and the HTTP server shuts
// down. A clean drain returns nil; the process contract on top (cmd/dsed)
// is exit 0 for drains and artifact.ExitForced for a second signal.
func (d *Daemon) Run(ctx context.Context) error {
	ln, err := net.Listen("tcp", d.opts.Addr)
	if err != nil {
		return fmt.Errorf("dsed: listen %s: %w", d.opts.Addr, err)
	}
	addr := ln.Addr().String()
	d.mu.Lock()
	d.addr = addr
	d.mu.Unlock()
	if d.opts.AddrFile != "" {
		// The addr file is a local handshake with the launcher, not spool
		// state — it stays on the real filesystem so an injected spool
		// fault cannot break the "daemon is up" signal chaos smokes rely on.
		if err := artifact.WriteFileAtomic(d.opts.AddrFile, 0o644, func(w io.Writer) error {
			_, werr := io.WriteString(w, addr+"\n")
			return werr
		}); err != nil {
			ln.Close()
			return fmt.Errorf("dsed: addr file: %w", err)
		}
	}
	d.opts.Logf("dsed: serving on %s (spool %s)", addr, d.opts.Dir)
	if rep := d.q.Recovery(); rep != nil {
		d.opts.Logf("dsed: %s", rep)
	}

	if d.gov != nil {
		d.gov.Start(ctx)
		defer d.gov.Stop()
	}

	// Storage background loops: usage/probe scanning and spool GC. Both
	// stop with ctx; neither holds durable state, so no drain ordering.
	var bgWG sync.WaitGroup
	bgWG.Add(2)
	go func() {
		defer bgWG.Done()
		d.disk.Run(ctx)
	}()
	go func() {
		defer bgWG.Done()
		d.janitor.Run(ctx)
	}()
	defer bgWG.Wait()

	// The scheduler fleet runs under its own cancel so the drain sequence
	// controls ordering: first stop intake, then stop the fleet.
	schedCtx, stopSched := context.WithCancel(ctx)
	defer stopSched()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		d.sched.Run(schedCtx)
	}()

	httpSrv := NewHTTPServer("", d.srv.Handler())
	serveErr := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		serveErr <- httpSrv.Serve(ln)
	}()

	select {
	case err := <-serveErr:
		// The listener died under us: stop the fleet (jobs journal and
		// requeue) and report the failure.
		stopSched()
		wg.Wait()
		return fmt.Errorf("dsed: serve: %w", err)
	case <-ctx.Done():
	}

	// Drain. Stop intake first so clients see 503 instead of enqueueing
	// into a dying daemon, then let in-flight jobs requeue.
	d.opts.Logf("dsed: draining: intake stopped, requeueing in-flight jobs")
	d.q.SetDraining(true)
	stopSched()

	drainCtx, cancelDrain := context.WithTimeout(context.WithoutCancel(ctx), d.opts.DrainTimeout)
	defer cancelDrain()
	if serr := httpSrv.Shutdown(drainCtx); serr != nil {
		httpSrv.Close()
	}
	wg.Wait()
	select {
	case err := <-serveErr:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			d.opts.Logf("dsed: serve: %v", err)
		}
	default:
	}
	d.q.Close()
	d.opts.Logf("dsed: drained cleanly")
	return nil
}
