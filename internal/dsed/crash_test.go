package dsed

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"graphdse/internal/artifact"
)

// Env vars carrying the spool and addr-file paths to the subprocess re-exec
// of TestDaemonKill9Recovery.
const (
	crashHelperEnv   = "GRAPHDSE_DSED_CRASH_HELPER"
	crashAddrFileEnv = "GRAPHDSE_DSED_CRASH_ADDRFILE"
	// crashAddrEnv pins the helper's listen address; the stream-resume test
	// needs the restarted daemon on the same port so the following client's
	// reconnects land.
	crashAddrEnv = "GRAPHDSE_DSED_CRASH_ADDR"
)

// crashHelperDaemon is the subprocess body: a real daemon over the given
// spool. It serves until SIGTERM (drain → exit 0) or SIGKILL (the parent's
// simulated crash). Never returns.
func crashHelperDaemon(spool, addrFile string) {
	addr := os.Getenv(crashAddrEnv)
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	d, err := New(Options{
		Addr:     addr,
		Dir:      spool,
		AddrFile: addrFile,
		Scheduler: SchedulerOptions{
			JobWorkers:   1,
			SweepWorkers: 1,
		},
		SSEHeartbeat: 500 * time.Millisecond,
		DrainTimeout: 10 * time.Second,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "crash helper: %v\n", err)
		os.Exit(3)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		cancel()
	}()
	if err := d.Run(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "crash helper: %v\n", err)
		os.Exit(3)
	}
	os.Exit(0)
}

// crashJobSpec is the sweep both the crashed-and-resumed run and the
// uninterrupted reference execute. The point delay paces the sweep so the
// parent can land a SIGKILL mid-run; it has no effect on results, so the
// reference drops it for speed.
func crashJobSpec(delayMS int) JobSpec {
	spec := workloadSpec("crashjob", "")
	spec.Space = smallSpace()
	spec.Workers = 1
	spec.PointDelayMS = delayMS
	return spec
}

// httpGetJSON fetches and decodes one endpoint, tolerating transient errors
// (the daemon may still be binding).
func httpGetJSON(base, path string, v any) error {
	resp, err := http.Get(base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: status %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// waitAddr polls the addr file the daemon writes once serving.
func waitAddr(t *testing.T, addrFile string, deadline time.Duration) string {
	t.Helper()
	end := time.Now().Add(deadline)
	for {
		data, err := os.ReadFile(addrFile)
		if err == nil && strings.HasSuffix(string(data), "\n") {
			return "http://" + strings.TrimSpace(string(data))
		}
		if time.Now().After(end) {
			t.Fatal("daemon never wrote its addr file")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// startCrashHelper launches the subprocess daemon over spool.
func startCrashHelper(t *testing.T, spool, addrFile string) *exec.Cmd {
	return startCrashHelperFor(t, "TestDaemonKill9Recovery", "", spool, addrFile)
}

// startCrashHelperFor launches the subprocess daemon by re-execing the test
// binary into testName's helper branch. addr pins the listen address
// ("" = ephemeral).
func startCrashHelperFor(t *testing.T, testName, addr, spool, addrFile string) *exec.Cmd {
	t.Helper()
	os.Remove(addrFile)
	cmd := exec.Command(os.Args[0], "-test.run="+testName+"$")
	cmd.Env = append(os.Environ(), crashHelperEnv+"="+spool, crashAddrFileEnv+"="+addrFile)
	if addr != "" {
		cmd.Env = append(cmd.Env, crashAddrEnv+"="+addr)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	return cmd
}

// TestDaemonKill9Recovery is the headline acceptance test: SIGKILL the
// daemon mid-sweep, restart it over the same spool, and require that the job
// resumes from its journal — no lost jobs, no double-run points, and a
// final report byte-identical to an uninterrupted daemon's. The clean
// SIGTERM drain of the restarted daemon (exit 0) rides along.
func TestDaemonKill9Recovery(t *testing.T) {
	if spool := os.Getenv(crashHelperEnv); spool != "" {
		crashHelperDaemon(spool, os.Getenv(crashAddrFileEnv)) // never returns
	}
	if testing.Short() {
		t.Skip("subprocess crash test skipped in -short")
	}

	spool := t.TempDir()
	addrFile := filepath.Join(t.TempDir(), "addr")
	spec := crashJobSpec(75)
	total := 26 // len(EnumerateSpace(smallSpace()))

	// Phase 1: start the daemon, submit the paced job, and SIGKILL the
	// process once a few points have completed — a crash no defer can soften.
	cmd := startCrashHelper(t, spool, addrFile)
	base := waitAddr(t, addrFile, 10*time.Second)
	body, _ := json.Marshal(spec)
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		cmd.Process.Kill()
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		cmd.Process.Kill()
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		var st JobStatus
		if err := httpGetJSON(base, "/v1/jobs/crashjob", &st); err == nil && st.Done >= 3 {
			break
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			t.Fatal("job never made progress")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err := cmd.Process.Kill(); err != nil { // SIGKILL: no drain, no flush
		t.Fatal(err)
	}
	cmd.Wait()

	journal := filepath.Join(spool, eventsDir, "crashjob.jsonl")
	partial, dups := journalPoints(t, journal)
	if partial == 0 || partial >= total || dups != 0 {
		t.Fatalf("SIGKILL landed outside the sweep: %d/%d points journaled (%d duplicates)", partial, total, dups)
	}
	t.Logf("SIGKILL landed after %d/%d journaled points", partial, total)

	// Phase 2: restart over the same spool. Recovery must re-enqueue the
	// job and the sweep must resume from the journaled points.
	cmd2 := startCrashHelper(t, spool, addrFile)
	base = waitAddr(t, addrFile, 10*time.Second)
	var st JobStatus
	deadline = time.Now().Add(60 * time.Second)
	for {
		if err := httpGetJSON(base, "/v1/jobs/crashjob", &st); err == nil && st.State.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			cmd2.Process.Kill()
			t.Fatal("recovered job never finished")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if st.State != StateDone {
		cmd2.Process.Kill()
		t.Fatalf("recovered job finished %s (%s), want done", st.State, st.Error)
	}
	if st.Attempt != 2 {
		t.Errorf("recovered job attempt %d, want 2 (one crash, one resume)", st.Attempt)
	}
	resp, err = http.Get(base + "/v1/jobs/crashjob/result")
	if err != nil {
		cmd2.Process.Kill()
		t.Fatal(err)
	}
	recovered := new(bytes.Buffer)
	_, cerr := recovered.ReadFrom(resp.Body)
	resp.Body.Close()
	if cerr != nil || resp.StatusCode != http.StatusOK {
		cmd2.Process.Kill()
		t.Fatalf("fetch recovered result: status %d err %v", resp.StatusCode, cerr)
	}

	// Graceful drain: first SIGTERM must exit 0.
	if err := cmd2.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := cmd2.Wait(); err != nil {
		t.Fatalf("restarted daemon did not drain cleanly on SIGTERM: %v", err)
	}

	// No double-runs: the journal holds exactly one record per point.
	if n, dups := journalPoints(t, journal); n != total || dups != 0 {
		t.Fatalf("journal holds %d distinct point records (%d duplicates) for %d points — duplicates or loss", n, dups, total)
	}

	// Phase 3: the reference — the same job on a fresh daemon, never
	// interrupted — must produce byte-identical result bytes.
	refBase, refShutdown := startDaemon(t, t.TempDir())
	defer refShutdown()
	refSpec := crashJobSpec(0)
	body, _ = json.Marshal(refSpec)
	resp, err = http.Post(refBase+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := awaitState(t, refBase, "crashjob", 60*time.Second); got.State != StateDone {
		t.Fatalf("reference job finished %s (%s)", got.State, got.Error)
	}
	resp, err = http.Get(refBase + "/v1/jobs/crashjob/result")
	if err != nil {
		t.Fatal(err)
	}
	reference := new(bytes.Buffer)
	_, cerr = reference.ReadFrom(resp.Body)
	resp.Body.Close()
	if cerr != nil {
		t.Fatal(cerr)
	}

	if !bytes.Equal(recovered.Bytes(), reference.Bytes()) {
		t.Fatalf("recovered report is not byte-identical to the uninterrupted one:\nrecovered: %d bytes\nreference: %d bytes",
			recovered.Len(), reference.Len())
	}
}

// journalPoints counts the point records in a job's event journal: how
// many distinct design points it holds, and how many records repeat a point
// already seen (0 unless some point ran twice).
func journalPoints(t *testing.T, path string) (distinct, dups int) {
	t.Helper()
	evs, _ := scanJournal(artifact.OS, path)
	seen := make(map[string]bool)
	for _, ev := range evs {
		if ev.Type != EventProgress || len(ev.Record) == 0 {
			continue
		}
		var rec struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(ev.Record, &rec); err != nil {
			t.Fatalf("journaled point record: %v", err)
		}
		if seen[rec.ID] {
			dups++
		}
		seen[rec.ID] = true
	}
	return len(seen), dups
}
