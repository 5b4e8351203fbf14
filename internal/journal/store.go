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

// LockFileName is the advisory writer lock inside a job directory.  It
// holds the writer's pid; OpenJob removes it when that process is gone
// (a SIGKILL leaves the lock behind) and refuses the job when the
// writer is still alive.
const LockFileName = "lock"

// ErrJobLocked is returned by OpenJob when another live process holds
// the job's writer lock.
var ErrJobLocked = errors.New("journal: job is locked by a live writer")

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
	fsys     iofault.FS
	lockPath string
	// staleLocks counts the dead writers' locks OpenJob took over.
	staleLocks int
}

// Swept reports how many stale lock files of dead writers OpenJob took
// over: zero means the previous writer closed cleanly.
func (j *JobJournal) Swept() int { return j.staleLocks }

// Close releases the journal file and the job directory's writer lock.
func (j *JobJournal) Close() error {
	err := j.Journal.Close()
	if rmErr := j.fsys.Remove(j.lockPath); rmErr != nil && !errors.Is(rmErr, os.ErrNotExist) && err == nil {
		err = rmErr
	}
	return err
}

// OpenJob opens (creating or resuming) the journal for one job key,
// salvaging whatever a killed writer left behind: a torn journal tail is
// truncated (the Journal's own recovery), and a lock file whose pid no
// longer runs is taken over.  A lock held by a live process returns
// ErrJobLocked — two writers on one job journal would interleave
// records.  The journal must carry a meta fingerprint matching meta
// (ErrMetaMismatch otherwise).  No writer stages files in a job
// directory: the journal appends in place, and RemoveJob deletes the
// directory whole.
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
	j := &JobJournal{fsys: s.fsys, lockPath: filepath.Join(dir, LockFileName)}
	if err := j.takeStaleLock(dir); err != nil {
		return nil, err
	}
	if err := j.acquireLock(dir); err != nil {
		return nil, err
	}
	inner, err := OpenFS(s.fsys, dir, meta)
	if err != nil {
		_ = s.fsys.Remove(j.lockPath)
		return nil, err
	}
	j.Journal = inner
	return j, nil
}

// takeStaleLock removes the job's lock file when its owner is no longer
// alive, and makes the removal durable with a directory fsync before
// the caller takes the lock.
func (j *JobJournal) takeStaleLock(dir string) error {
	data, err := j.fsys.ReadFile(j.lockPath)
	switch {
	case errors.Is(err, os.ErrNotExist):
		return nil
	case err != nil:
		return fmt.Errorf("journal: job: %w", err)
	}
	if pid, ok := parseLock(data); ok && pidAlive(pid) {
		return fmt.Errorf("%w (pid %d)", ErrJobLocked, pid)
	}
	// Dead writer (or garbage lock content): take the lock over.
	if err := j.fsys.Remove(j.lockPath); err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("journal: job: removing stale lock: %w", err)
	}
	j.staleLocks++
	if err := j.fsys.SyncDir(dir); err != nil {
		return fmt.Errorf("journal: job: %w", err)
	}
	return nil
}

// acquireLock writes this process's pid as the job's writer lock and
// makes both the content and the directory entry durable.  O_EXCL makes
// two same-instant openers race to exactly one winner.
func (j *JobJournal) acquireLock(dir string) error {
	f, err := j.fsys.OpenFile(j.lockPath, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if errors.Is(err, os.ErrExist) {
		return fmt.Errorf("%w (lock reappeared)", ErrJobLocked)
	}
	if err != nil {
		return fmt.Errorf("journal: job: %w", err)
	}
	_, werr := fmt.Fprintf(f, "pid %d\n", os.Getpid())
	if werr == nil {
		werr = f.Sync()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = j.fsys.SyncDir(dir)
	}
	if werr != nil {
		_ = j.fsys.Remove(j.lockPath)
		return fmt.Errorf("journal: job: writing lock: %w", werr)
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
