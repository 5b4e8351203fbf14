package iofault

import (
	"io"
	"io/fs"
	"os"
	"path/filepath"
)

// File is the subset of *os.File the durable layers use. Every method
// mirrors the os semantics; implementations may inject failures or
// track durability, but must keep the success-path contract identical.
type File interface {
	io.Reader
	io.Writer
	io.Closer
	io.Seeker

	// Sync flushes the file's contents to stable storage (fsync).
	Sync() error
	// Truncate changes the size of the file.
	Truncate(size int64) error
	// Stat returns the FileInfo describing the file.
	Stat() (fs.FileInfo, error)
	// Name returns the path the file was opened with.
	Name() string
}

// FS is the filesystem surface threaded through internal/journal and
// internal/trace. It is deliberately narrow: only the operations the
// crash-consistent write paths perform, plus SyncDir for directory
// entry durability.
type FS interface {
	// OpenFile opens path with the given os.O_* flag and permissions.
	OpenFile(path string, flag int, perm fs.FileMode) (File, error)
	// ReadFile returns the entire contents of path.
	ReadFile(path string) ([]byte, error)
	// ReadDir lists the directory entries of path, sorted by name.
	ReadDir(path string) ([]fs.DirEntry, error)
	// Rename atomically replaces newpath with oldpath.
	Rename(oldpath, newpath string) error
	// Remove deletes a file or empty directory.
	Remove(path string) error
	// RemoveAll deletes path and everything below it.
	RemoveAll(path string) error
	// MkdirAll creates path and any missing parents.
	MkdirAll(path string, perm fs.FileMode) error
	// Stat returns the FileInfo for path.
	Stat(path string) (fs.FileInfo, error)
	// SyncDir fsyncs the directory itself, making the creation,
	// removal, and rename of entries inside it durable.
	SyncDir(path string) error
}

// osFS is the real filesystem.
type osFS struct{}

// OS returns the production FS backed by the os package.
func OS() FS { return osFS{} }

func (osFS) OpenFile(path string, flag int, perm fs.FileMode) (File, error) {
	f, err := os.OpenFile(path, flag, perm)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) ReadFile(path string) ([]byte, error)       { return os.ReadFile(path) }
func (osFS) ReadDir(path string) ([]fs.DirEntry, error) { return os.ReadDir(path) }
func (osFS) Rename(oldpath, newpath string) error       { return os.Rename(oldpath, newpath) }
func (osFS) Remove(path string) error                   { return os.Remove(path) }
func (osFS) RemoveAll(path string) error                { return os.RemoveAll(path) }
func (osFS) MkdirAll(path string, perm fs.FileMode) error {
	return os.MkdirAll(path, perm)
}
func (osFS) Stat(path string) (fs.FileInfo, error) { return os.Stat(path) }

func (osFS) SyncDir(path string) error {
	d, err := os.Open(filepath.Clean(path))
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// CommitFile finishes a crash-consistent write: f, opened at tmp and
// fully written, is fsynced, closed and renamed over path, and path's
// directory is fsynced, so path holds either its previous contents or
// all of f's.  werr is the caller's own write error, if any, and
// cancels the commit.  On any error before the rename completes, f is
// closed and tmp removed, leaving path untouched (absent a torn-rename
// fault).
func CommitFile(fsys FS, f File, tmp, path string, werr error) error {
	err := werr
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fsys.Rename(tmp, path)
	}
	if err != nil {
		_ = fsys.Remove(tmp)
		return err
	}
	return fsys.SyncDir(filepath.Dir(path))
}
