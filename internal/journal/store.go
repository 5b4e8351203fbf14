package journal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"

	"ilplimit/internal/iofault"
)

// LockFileName is the advisory writer lock inside a journal directory
// (a job directory or an ilplimit -resume directory).  It holds the
// writer's pid; LockDir removes it when that process is gone (a SIGKILL
// leaves the lock behind) and refuses the directory when the writer is
// still alive.
const LockFileName = "lock"

// ErrLocked is returned by LockDir, and so by OpenJob, when another live
// process holds the directory's writer lock.
var ErrLocked = errors.New("journal: directory is locked by a live writer")

// Store manages a directory of per-job journals for the analysis
// service: one subdirectory per job key, each holding that job's
// crash-safe journal plus the writer lock.  A Store is cheap — it holds
// no descriptors; each OpenJob returns an independent JobJournal.
type Store struct {
	root string
	fsys iofault.FS
}

// OpenStore creates root if needed and returns the per-job store on
// the real filesystem.
func OpenStore(root string) (*Store, error) {
	return OpenStoreFS(iofault.OS(), root)
}

// OpenStoreFS is OpenStore over an explicit filesystem, through which
// I/O faults can be injected in tests and chaos runs.
func OpenStoreFS(fsys iofault.FS, root string) (*Store, error) {
	if err := fsys.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("journal: store: %w", err)
	}
	return &Store{root: root, fsys: fsys}, nil
}

// validKey guards against path traversal: job keys are content hashes
// and fixed names, never client-controlled paths.
func validKey(key string) error {
	if key == "" {
		return errors.New("journal: empty job key")
	}
	for _, r := range key {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
		default:
			return fmt.Errorf("journal: invalid job key %q", key)
		}
	}
	if strings.HasPrefix(key, ".") {
		return fmt.Errorf("journal: invalid job key %q", key)
	}
	return nil
}

// JobDir returns the directory a job's journal lives in.
func (s *Store) JobDir(key string) string { return filepath.Join(s.root, key) }

// Jobs lists the keys with a job directory, sorted.
func (s *Store) Jobs() ([]string, error) {
	ents, err := s.fsys.ReadDir(s.root)
	if err != nil {
		return nil, fmt.Errorf("journal: store: %w", err)
	}
	var keys []string
	for _, e := range ents {
		if e.IsDir() {
			keys = append(keys, e.Name())
		}
	}
	sort.Strings(keys)
	return keys, nil
}

// RemoveJob deletes a job's directory and everything in it, then
// fsyncs the store root so the removal survives a crash.
func (s *Store) RemoveJob(key string) error {
	if err := validKey(key); err != nil {
		return err
	}
	if err := s.fsys.RemoveAll(s.JobDir(key)); err != nil {
		return err
	}
	return s.fsys.SyncDir(s.root)
}

// JobJournal is a Journal bound to one job directory of a Store,
// holding the directory's writer lock for its lifetime.  Close releases
// the lock along with the journal file.
type JobJournal struct {
	*Journal
	lock *DirLock
}

// Close releases the journal file and the job directory's writer lock.
func (j *JobJournal) Close() error {
	err := j.Journal.Close()
	if uerr := j.lock.Unlock(); err == nil {
		err = uerr
	}
	return err
}

// OpenJob opens (creating or resuming) the journal for one job key,
// salvaging whatever a killed writer left behind: a torn journal tail is
// truncated (the Journal's own recovery), and a lock file whose pid no
// longer runs is taken over (LockDir).  A lock held by a live process
// returns ErrLocked.  The journal must carry a meta fingerprint
// matching meta (ErrMetaMismatch otherwise).  No writer stages files in
// a job directory: the journal appends in place, and RemoveJob deletes
// the directory whole.
//
// Every directory-entry mutation along the way — the job directory's
// creation, a stale lock's removal, the lock file's creation — is made
// durable with a parent-directory fsync, so a post-crash store can't
// hold a journal whose enclosing directory entry evaporated.
func (s *Store) OpenJob(key string, meta Meta) (*JobJournal, error) {
	if err := validKey(key); err != nil {
		return nil, err
	}
	dir := s.JobDir(key)
	if err := s.fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: job %s: %w", key, err)
	}
	if err := s.fsys.SyncDir(s.root); err != nil {
		return nil, fmt.Errorf("journal: job %s: %w", key, err)
	}
	lock, err := LockDir(s.fsys, dir)
	if err != nil {
		return nil, err
	}
	inner, err := OpenFS(s.fsys, dir, meta)
	if err != nil {
		_ = lock.Unlock()
		return nil, err
	}
	return &JobJournal{Journal: inner, lock: lock}, nil
}

// DirLock is a directory's writer lock, the file LockFileName naming
// the writer's pid.  Two writers on one journal directory would append
// at the same offsets and lose each other's fsync'd records.
type DirLock struct {
	fsys iofault.FS
	path string
}

// LockDir takes the writer lock of dir, which must exist.  A lock
// whose pid no longer runs is taken over; one held by a live process
// returns ErrLocked.  Both the lock's content and its directory entry
// are durable before LockDir returns.
func LockDir(fsys iofault.FS, dir string) (*DirLock, error) {
	l := &DirLock{fsys: fsys, path: filepath.Join(dir, LockFileName)}
	if err := l.takeStale(dir); err != nil {
		return nil, err
	}
	if err := l.acquire(dir); err != nil {
		return nil, err
	}
	return l, nil
}

// Unlock releases the lock.
func (l *DirLock) Unlock() error {
	if err := l.fsys.Remove(l.path); err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	return nil
}

// takeStale removes the lock file when its owner is no longer alive,
// and makes the removal durable with a directory fsync before the
// caller takes the lock.
func (l *DirLock) takeStale(dir string) error {
	data, err := l.fsys.ReadFile(l.path)
	switch {
	case errors.Is(err, os.ErrNotExist):
		return nil
	case err != nil:
		return fmt.Errorf("journal: lock: %w", err)
	}
	if pid, ok := parseLock(data); ok && pidAlive(pid) {
		return fmt.Errorf("%w: %s names pid %d", ErrLocked, l.path, pid)
	}
	// Dead writer (or garbage lock content): take the lock over.
	if err := l.fsys.Remove(l.path); err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("journal: lock: removing stale lock: %w", err)
	}
	if err := l.fsys.SyncDir(dir); err != nil {
		return fmt.Errorf("journal: lock: %w", err)
	}
	return nil
}

// acquire writes this process's pid as the directory's writer lock and
// makes both the content and the directory entry durable.  O_EXCL makes
// two same-instant openers race to exactly one winner.
func (l *DirLock) acquire(dir string) error {
	f, err := l.fsys.OpenFile(l.path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if errors.Is(err, os.ErrExist) {
		return fmt.Errorf("%w: %s reappeared", ErrLocked, l.path)
	}
	if err != nil {
		return fmt.Errorf("journal: lock: %w", err)
	}
	_, werr := fmt.Fprintf(f, "pid %d\n", os.Getpid())
	if werr == nil {
		werr = f.Sync()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = l.fsys.SyncDir(dir)
	}
	if werr != nil {
		_ = l.fsys.Remove(l.path)
		return fmt.Errorf("journal: lock: writing %s: %w", l.path, werr)
	}
	return nil
}

// parseLock extracts the pid from a lock file's "pid N" content.
func parseLock(data []byte) (int, bool) {
	fields := strings.Fields(string(data))
	if len(fields) != 2 || fields[0] != "pid" {
		return 0, false
	}
	pid, err := strconv.Atoi(fields[1])
	if err != nil || pid <= 0 {
		return 0, false
	}
	return pid, true
}

// pidAlive reports whether a process with the given pid exists, via the
// traditional signal-0 probe.  EPERM still means "exists"; only ESRCH
// (or a finished process handle) means the writer is gone.
func pidAlive(pid int) bool {
	proc, err := os.FindProcess(pid)
	if err != nil {
		return false
	}
	err = proc.Signal(syscall.Signal(0))
	if err == nil {
		return true
	}
	if errors.Is(err, os.ErrProcessDone) || errors.Is(err, syscall.ESRCH) {
		return false
	}
	return true
}
