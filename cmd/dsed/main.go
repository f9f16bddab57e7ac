// Command dsed is the crash-safe design-space-exploration daemon: an
// HTTP/JSON service that accepts sweep jobs, shards their design points
// across a supervised worker fleet, and survives kill -9 at any instant —
// each job's durable event journal means a restart resumes every
// interrupted job from its last completed point, with no duplicates and no
// lost jobs.
//
// Exit codes follow the artifact contract: 0 for a clean SIGTERM drain,
// artifact.ExitForced (6) when a second signal pre-empts the drain,
// artifact.ExitUsage (2) for flag errors, artifact.ExitError (1) otherwise.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"graphdse/internal/artifact"
	"graphdse/internal/dsed"
	"graphdse/internal/guard"
)

// parseBytes parses a byte size with an optional binary-unit suffix
// (KiB/MiB/GiB, or bare bytes).
func parseBytes(s string) (uint64, error) {
	mult := uint64(1)
	upper := strings.ToUpper(strings.TrimSpace(s))
	for suffix, m := range map[string]uint64{"KIB": 1 << 10, "MIB": 1 << 20, "GIB": 1 << 30} {
		if strings.HasSuffix(upper, suffix) {
			mult = m
			upper = strings.TrimSuffix(upper, suffix)
			break
		}
	}
	n, err := strconv.ParseUint(strings.TrimSpace(upper), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("size %q: want e.g. 512MiB or 1073741824", s)
	}
	return n * mult, nil
}

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:8080", "listen address (use :0 for an ephemeral port)")
		addrFile     = flag.String("addr-file", "", "write the bound listen address to this file once serving (for :0 handshakes)")
		dir          = flag.String("dir", "dsed-spool", "spool directory for per-job event journals")
		jobWorkers   = flag.Int("job-workers", 2, "concurrent jobs")
		sweepWorkers = flag.Int("sweep-workers", 4, "sweep workers per job")
		maxQueued    = flag.Int("max-queued", 64, "admission control: queued jobs beyond this are rejected with 429")
		tenantCap    = flag.Int("tenant-cap", 8, "admission control: max in-flight jobs per tenant")
		cacheEntries = flag.Int("cache-entries", 4, "decoded traces held in the content-addressed cache")
		memBudget    = flag.String("mem-budget", "", "heap soft budget, e.g. 512MiB: under pressure the fleet sheds workers (empty = off)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "graceful-shutdown window for requeueing in-flight jobs")
		eventBuffer  = flag.Int("event-buffer", 64, "per-subscriber event buffer: a stream consumer this far behind is evicted (resume with Last-Event-ID)")
		sseHeartbeat = flag.Duration("sse-heartbeat", 10*time.Second, "comment-heartbeat interval on /v1/jobs/{id}/events streams")
		quiet        = flag.Bool("quiet", false, "suppress operational logging")

		spoolSoft       = flag.String("spool-soft", "", "spool soft watermark, e.g. 256MiB: above it submissions are shed with 507 (empty = off)")
		spoolHard       = flag.String("spool-hard", "", "spool hard watermark: above it the daemon degrades to read-only until space frees (empty = off)")
		diskProbe       = flag.Duration("disk-probe", 2*time.Second, "disk usage rescan / degraded-mode recovery-probe interval")
		retainAge       = flag.Duration("retain-age", 0, "GC terminal jobs older than this (0 = keep forever)")
		retainJobs      = flag.Int("retain-jobs", 0, "keep at most this many terminal jobs, oldest evicted first (0 = unlimited)")
		retainBytes     = flag.String("retain-bytes", "", "cap terminal jobs' combined spool bytes, oldest evicted first (empty = unlimited)")
		maxCorrupt      = flag.Int("max-corrupt", 16, "cap on quarantined .corrupt event journals; oldest evicted beyond it")
		janitorInterval = flag.Duration("janitor-interval", 30*time.Second, "spool janitor sweep interval")

		// Deterministic storage-fault injection for chaos smokes. Not for
		// production: the daemon will really refuse writes.
		faultWriteBudget = flag.String("fault-write-budget", "", "TESTING: inject ENOSPC on spool writes after this many bytes, e.g. 64KiB (empty = off)")
		faultClearFile   = flag.String("fault-clear-file", "", "TESTING: stop injecting faults once this file exists (polled on every spool write)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "dsed: unexpected arguments: %v\n", flag.Args())
		flag.Usage()
		os.Exit(artifact.ExitUsage)
	}

	logf := log.New(os.Stderr, "", log.LstdFlags).Printf
	if *quiet {
		logf = func(string, ...any) {}
	}

	opts := dsed.Options{
		Addr: *addr,
		Dir:  *dir,
		Queue: dsed.QueueOptions{
			MaxQueued:   *maxQueued,
			TenantCap:   *tenantCap,
			EventBuffer: *eventBuffer,
			MaxCorrupt:  *maxCorrupt,
		},
		Disk: dsed.DiskPolicy{
			ProbeInterval: *diskProbe,
		},
		Retention: dsed.RetentionPolicy{
			MaxAge:   *retainAge,
			MaxJobs:  *retainJobs,
			Interval: *janitorInterval,
		},
		SSEHeartbeat: *sseHeartbeat,
		Scheduler: dsed.SchedulerOptions{
			JobWorkers:   *jobWorkers,
			SweepWorkers: *sweepWorkers,
		},
		CacheEntries: *cacheEntries,
		DrainTimeout: *drainTimeout,
		AddrFile:     *addrFile,
		Logf:         logf,
	}
	if *memBudget != "" {
		bytes, err := parseBytes(*memBudget)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dsed: -mem-budget: %v\n", err)
			os.Exit(artifact.ExitUsage)
		}
		opts.HeapSoftBytes = bytes
	}
	for _, sz := range []struct {
		flagName string
		raw      string
		dst      *int64
	}{
		{"-spool-soft", *spoolSoft, &opts.Disk.SoftBytes},
		{"-spool-hard", *spoolHard, &opts.Disk.HardBytes},
		{"-retain-bytes", *retainBytes, &opts.Retention.MaxBytes},
	} {
		if sz.raw == "" {
			continue
		}
		bytes, err := parseBytes(sz.raw)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dsed: %s: %v\n", sz.flagName, err)
			os.Exit(artifact.ExitUsage)
		}
		*sz.dst = int64(bytes)
	}
	if *faultWriteBudget != "" {
		budget, err := parseBytes(*faultWriteBudget)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dsed: -fault-write-budget: %v\n", err)
			os.Exit(artifact.ExitUsage)
		}
		ffs := artifact.NewFaultFS(artifact.OS)
		ffs.SetWriteBudget(int64(budget))
		if *faultClearFile != "" {
			ffs.ClearOnFile(*faultClearFile)
		}
		opts.FS = ffs
		logf("dsed: FAULT INJECTION armed: ENOSPC after %d spool bytes (clear file: %q)", budget, *faultClearFile)
	}

	d, err := dsed.New(opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dsed: %v\n", err)
		os.Exit(artifact.ExitError)
	}

	// First SIGINT/SIGTERM starts the graceful drain (stop intake, requeue
	// in-flight jobs, exit 0). A second signal means the operator will not
	// wait: exit ExitForced immediately — every completed point is already
	// journaled, and a restart resumes from it.
	ctx, stop := guard.SignalContext(context.Background(), func(sig os.Signal) {
		fmt.Fprintf(os.Stderr, "dsed: second signal (%v): forcing exit; durable state will be recovered on restart\n", sig)
		os.Exit(artifact.ExitForced)
	})
	defer stop()

	if err := d.Run(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "dsed: %v\n", err)
		os.Exit(artifact.ExitError)
	}
}
