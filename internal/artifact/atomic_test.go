package artifact

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

func TestWriteFileAtomicReplaces(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "artifact.bin")
	if err := os.WriteFile(path, []byte("old complete artifact"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := WriteFileAtomic(path, 0o644, func(w io.Writer) error {
		_, err := w.Write([]byte("new complete artifact"))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil || string(got) != "new complete artifact" {
		t.Fatalf("got %q err=%v", got, err)
	}
	assertNoTempFiles(t, dir)
}

func TestWriteFileAtomicLeavesOldOnFailure(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "artifact.bin")
	if err := os.WriteFile(path, []byte("old complete artifact"), 0o644); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("mid-write failure")
	err := WriteFileAtomic(path, 0o644, func(w io.Writer) error {
		w.Write([]byte("half of the new art")) // torn content that must never land
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	got, _ := os.ReadFile(path)
	if string(got) != "old complete artifact" {
		t.Fatalf("old artifact damaged: %q", got)
	}
	assertNoTempFiles(t, dir)
}

func TestAtomicFileAbort(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x")
	af, err := CreateAtomic(path)
	if err != nil {
		t.Fatal(err)
	}
	af.Write([]byte("doomed"))
	af.Abort()
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("aborted write created target: %v", err)
	}
	assertNoTempFiles(t, dir)
	if _, err := af.Write([]byte("x")); err == nil {
		t.Fatal("write after abort accepted")
	}
	if err := af.Commit(); err == nil {
		t.Fatal("commit after abort accepted")
	}
}

// recordingFS logs, in order, the durability steps a commit performs.
type recordingFS struct {
	FS
	ops []string
}

func (r *recordingFS) CreateTemp(dir, pattern string) (File, error) {
	f, err := r.FS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &recordingFile{File: f, fs: r}, nil
}

func (r *recordingFS) Rename(oldpath, newpath string) error {
	r.ops = append(r.ops, "rename "+filepath.Base(newpath))
	return r.FS.Rename(oldpath, newpath)
}

func (r *recordingFS) SyncDir(dir string) error {
	r.ops = append(r.ops, "syncdir "+filepath.Base(dir))
	return r.FS.SyncDir(dir)
}

type recordingFile struct {
	File
	fs *recordingFS
}

func (f *recordingFile) Write(p []byte) (int, error) {
	f.fs.ops = append(f.fs.ops, "write")
	return f.File.Write(p)
}

func (f *recordingFile) Sync() error {
	f.fs.ops = append(f.fs.ops, "sync")
	return f.File.Sync()
}

func (f *recordingFile) Close() error {
	f.fs.ops = append(f.fs.ops, "close")
	return f.File.Close()
}

// TestAtomicFileCommitOrder pins the crash-durability order of a commit:
// the data is fsynced and closed before the temp file is renamed over the
// target, and the directory is fsynced after the rename.
func TestAtomicFileCommitOrder(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "out")
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	rec := &recordingFS{FS: OS}
	af, err := CreateAtomicFS(rec, filepath.Join(dir, "artifact.bin"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := af.Write([]byte("payload")); err != nil {
		t.Fatal(err)
	}
	if err := af.Commit(); err != nil {
		t.Fatal(err)
	}
	want := []string{"write", "sync", "close", "rename artifact.bin", "syncdir out"}
	if fmt.Sprint(rec.ops) != fmt.Sprint(want) {
		t.Fatalf("commit steps = %q, want %q", rec.ops, want)
	}
}

func assertNoTempFiles(t *testing.T, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Fatalf("leaked temp file %s", e.Name())
		}
	}
}

// crashHelperEnv marks the subprocess re-exec of TestAtomicCrashConsistency.
const crashHelperEnv = "GRAPHDSE_ATOMIC_CRASH_HELPER"

// TestAtomicCrashConsistency is the acceptance test for the atomic layer:
// a subprocess rewrites one artifact in a tight loop via WriteFileAtomic and
// is SIGKILLed at a random point; the survivor on disk must always be a
// complete, checksum-valid generation — old or new, never torn. The payload
// is a sealed container so "complete" is machine-checkable.
func TestAtomicCrashConsistency(t *testing.T) {
	if target := os.Getenv(crashHelperEnv); target != "" {
		crashHelperLoop(target) // never returns
	}
	if testing.Short() {
		t.Skip("subprocess crash test skipped in -short")
	}
	dir := t.TempDir()
	target := filepath.Join(dir, "artifact.chk")
	for round := 0; round < 8; round++ {
		cmd := exec.Command(os.Args[0], "-test.run=TestAtomicCrashConsistency")
		cmd.Env = append(os.Environ(), crashHelperEnv+"="+target)
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		// Let it complete some generations, then kill -9 mid-flight.
		time.Sleep(time.Duration(20+17*round) * time.Millisecond)
		cmd.Process.Signal(syscall.SIGKILL)
		cmd.Wait()

		data, err := os.ReadFile(target)
		if errors.Is(err, os.ErrNotExist) {
			continue // killed before the first commit: old state (nothing) is fine
		}
		if err != nil {
			t.Fatal(err)
		}
		gen, perr := parseGeneration(data)
		if perr != nil {
			t.Fatalf("round %d: torn/corrupt artifact survived the crash: %v", round, perr)
		}
		t.Logf("round %d: survivor is complete generation %d (%d bytes)", round, gen, len(data))
	}
}

// crashHelperLoop rewrites target with successive sealed generations until
// the parent kills the process.
func crashHelperLoop(target string) {
	for gen := uint64(0); ; gen++ {
		WriteFileAtomic(target, 0o644, func(w io.Writer) error {
			bw, err := NewBlockWriter(w, "CRASHGEN", 1)
			if err != nil {
				return err
			}
			payload := make([]byte, 64*1024)
			binary.LittleEndian.PutUint64(payload, gen)
			for i := 8; i < len(payload); i++ {
				payload[i] = byte(gen + uint64(i))
			}
			if err := bw.WriteBlock(payload, 1); err != nil {
				return err
			}
			return bw.Close()
		})
	}
}

// parseGeneration verifies data is one complete sealed generation and
// returns its number.
func parseGeneration(data []byte) (uint64, error) {
	br, err := NewBlockReader(bytes.NewReader(data))
	if err != nil {
		return 0, err
	}
	payload, _, err := br.Next()
	if err != nil {
		return 0, err
	}
	if len(payload) < 8 {
		return 0, fmt.Errorf("short payload")
	}
	gen := binary.LittleEndian.Uint64(payload)
	for i := 8; i < len(payload); i++ {
		if payload[i] != byte(gen+uint64(i)) {
			return 0, fmt.Errorf("payload byte %d inconsistent with generation %d", i, gen)
		}
	}
	if _, _, err := br.Next(); err != io.EOF {
		return 0, fmt.Errorf("not sealed: %v", err)
	}
	return gen, nil
}
