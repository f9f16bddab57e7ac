package artifact

import (
	"io"
	"io/fs"
	"os"
)

// FS is the filesystem seam under every persistence path: the atomic
// writers, the daemon's event journals and result seals, and the sweep
// checkpoints all perform their durable I/O through this interface instead
// of calling the os package directly. Production code uses OS; chaos and
// unit tests substitute a FaultFS to inject ENOSPC, EIO, fsync failures,
// failed renames, and torn writes deterministically — the storage failure
// modes a real deployment meets only at 3am.
//
// The seam deliberately covers exactly the operations persistence needs —
// open/write/sync/rename/remove/readdir plus the small read-side helpers —
// so a reviewer (and the atomicwrite analyzer) can enumerate every way the
// pipeline touches durable state.
type FS interface {
	// OpenFile opens name with the given flag and permissions.
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	// CreateTemp creates a temp file in dir (see os.CreateTemp).
	CreateTemp(dir, pattern string) (File, error)
	// Rename atomically replaces newpath with oldpath (POSIX rename(2)).
	Rename(oldpath, newpath string) error
	// Remove deletes a file.
	Remove(name string) error
	// MkdirAll creates a directory tree.
	MkdirAll(path string, perm os.FileMode) error
	// ReadDir lists a directory.
	ReadDir(name string) ([]fs.DirEntry, error)
	// ReadFile reads a whole file.
	ReadFile(name string) ([]byte, error)
	// Stat describes a file.
	Stat(name string) (os.FileInfo, error)
	// Truncate cuts a file to size (journal torn-tail repair).
	Truncate(name string, size int64) error
	// SyncDir fsyncs a directory so a completed rename survives power loss.
	// Best-effort by contract: some filesystems reject directory fsync, and
	// the rename itself is still atomic there.
	SyncDir(dir string) error
}

// File is the writable-handle half of the seam. *os.File satisfies it.
type File interface {
	io.Reader
	io.Writer
	io.Closer
	// Sync fsyncs the file. A file whose Sync failed must never be trusted:
	// the kernel may have dropped the dirty pages, and POSIX does not
	// guarantee a retry will write them (fsyncgate). Callers discard the
	// file and retry the whole operation from scratch.
	Sync() error
	// Chmod sets the file's permissions.
	Chmod(mode os.FileMode) error
	// Name returns the path the file was opened with.
	Name() string
}

// OS is the real filesystem.
var OS FS = osFS{}

// osFS implements FS directly on the os package. It lives inside
// internal/artifact, the one package exempt from the atomicwrite analyzer,
// because it IS the primitive everything else must route through.
type osFS struct{}

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}

func (osFS) CreateTemp(dir, pattern string) (File, error) {
	return os.CreateTemp(dir, pattern)
}

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error             { return os.Remove(name) }
func (osFS) MkdirAll(path string, perm os.FileMode) error {
	return os.MkdirAll(path, perm)
}
func (osFS) ReadDir(name string) ([]fs.DirEntry, error) { return os.ReadDir(name) }
func (osFS) ReadFile(name string) ([]byte, error)       { return os.ReadFile(name) }
func (osFS) Stat(name string) (os.FileInfo, error)      { return os.Stat(name) }
func (osFS) Truncate(name string, size int64) error     { return os.Truncate(name, size) }

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	d.Close()
	return err
}
