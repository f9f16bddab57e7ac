package dse

import (
	"context"
	"os"
	"os/exec"
	"reflect"
	"strings"
	"syscall"
	"testing"
	"time"

	"graphdse/internal/guard"
	"graphdse/internal/memsim"
	"graphdse/internal/sysim"
)

// sigtermHelperEnv carries the checkpoint path to the subprocess re-exec of
// TestSweepSIGTERMCheckpointResume.
const sigtermHelperEnv = "GRAPHDSE_DSE_SIGTERM_HELPER"

// sigtermSweepOpts is the sweep configuration shared verbatim by the killed
// subprocess, the resumed run, and the uninterrupted reference — identical
// options are what make the byte-identity claim meaningful. The transient
// rule forces retry paths through the checkpoint too.
func sigtermSweepOpts(path string, resume bool) SweepOptions {
	return SweepOptions{
		Workers:        1,
		CheckpointPath: path,
		Resume:         resume,
		Faults:         &FaultInjector{Rules: []FaultRule{{Class: FaultTransient, Rate: 0.2, Seed: 9, Times: 1}}},
		Retries:        2,
		BackoffBase:    time.Millisecond,
	}
}

// sigtermHelperTrace rebuilds the deterministic helper trace without a
// testing.TB (the subprocess has no test context of its own).
func sigtermHelperTrace() (*memsim.PreparedTrace, error) {
	m, _, err := sysim.PaperWorkloadTraceContext(context.Background(), sysim.DefaultConfig(), 256, 8, 7, 1, nil)
	if err != nil {
		return nil, err
	}
	return memsim.Prepare(m.Trace())
}

// sigtermHelperSweep is the subprocess body: a slow, checkpointed sweep
// under guard.SignalContext, exactly the signal discipline cmd/dse uses.
// The first SIGTERM cancels the context, the sweep drains, the checkpoint
// flushes, and the process exits 0. Never returns.
func sigtermHelperSweep(path string) {
	// ~40ms per point: slow enough for the parent to land a SIGTERM
	// mid-sweep, fast enough to finish if the signal never comes.
	testHookPointDone = func(DesignPoint) { time.Sleep(40 * time.Millisecond) }
	ctx, stop := guard.SignalContext(context.Background(), func(os.Signal) { os.Exit(42) })
	defer stop()
	pt, err := sigtermHelperTrace()
	if err != nil {
		os.Exit(3)
	}
	_, err = SweepPreparedContext(ctx, pt, EnumerateSpace(smallSpace()), sigtermSweepOpts(path, false))
	if err != nil && ctx.Err() == nil {
		os.Exit(3) // a real failure, not the interrupt
	}
	os.Exit(0)
}

// TestSweepSIGTERMCheckpointResume is the kill/resume acceptance test: a
// subprocess runs a checkpointed sweep behind guard.SignalContext and is
// SIGTERMed mid-run; the first signal must drain it cleanly (exit 0,
// checkpoint flushed), and resuming from its checkpoint must reproduce the
// uninterrupted sweep's survivor records byte for byte.
func TestSweepSIGTERMCheckpointResume(t *testing.T) {
	if path := os.Getenv(sigtermHelperEnv); path != "" {
		sigtermHelperSweep(path) // never returns
	}
	if testing.Short() {
		t.Skip("subprocess signal test skipped in -short")
	}
	points := EnumerateSpace(smallSpace())

	var path string
	partial := 0
	for round := 0; round < 3 && partial == 0; round++ {
		path = t.TempDir() + "/sweep.ckpt"
		cmd := exec.Command(os.Args[0], "-test.run=TestSweepSIGTERMCheckpointResume$")
		cmd.Env = append(os.Environ(), sigtermHelperEnv+"="+path)
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		// Wait for a few completed records to reach the checkpoint, then
		// send the first SIGTERM.
		deadline := time.Now().Add(20 * time.Second)
		for countCheckpointLines(path) < 4 {
			if time.Now().After(deadline) {
				cmd.Process.Kill()
				cmd.Wait()
				t.Fatal("subprocess produced no checkpoint records")
			}
			time.Sleep(10 * time.Millisecond)
		}
		if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		if err := cmd.Wait(); err != nil {
			t.Fatalf("helper did not drain cleanly on first SIGTERM: %v", err)
		}
		if n := countCheckpointLines(path); n < len(points) {
			partial = n
		}
		// else: the sweep outran the signal; retry with a fresh dir.
	}
	if partial == 0 {
		t.Fatal("never caught the sweep mid-run")
	}
	t.Logf("SIGTERM landed after %d/%d checkpointed records", partial, len(points))

	// Resume in-process from the interrupted checkpoint.
	events := smallTrace(t)
	resumed, err := sweepEvents(events, points, sigtermSweepOpts(path, true))
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	adopted := 0
	for _, r := range resumed {
		if r.FromCheckpoint {
			adopted++
		}
	}
	if adopted != partial {
		t.Fatalf("resume adopted %d records, checkpoint held %d", adopted, partial)
	}

	// Reference: the same sweep never interrupted.
	ref, err := sweepEvents(events, points, sigtermSweepOpts(t.TempDir()+"/ref.ckpt", false))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(canonicalSurvivors(t, resumed), canonicalSurvivors(t, ref)) {
		t.Fatal("resumed sweep is not byte-identical to the uninterrupted one")
	}
}

// countCheckpointLines returns the number of complete checkpoint lines on
// disk (0 when the file does not exist yet).
func countCheckpointLines(path string) int {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0
	}
	return strings.Count(string(data), "\n")
}
