package iofault

import (
	"fmt"
	"io/fs"
	"math/rand"
	"strings"
	"sync"
	"syscall"
)

// Fault kind names, used as Plan trigger keys, String tokens, and
// Fired() counter keys.
const (
	// KindShortWrite truncates a write partway through and reports EIO.
	KindShortWrite = "short-write"
	// KindWriteEIO fails a write outright with EIO.
	KindWriteEIO = "write-eio"
	// KindWriteENOSPC fails a write with ENOSPC (disk full).
	KindWriteENOSPC = "write-enospc"
	// KindSyncEIO fails a file or directory fsync with EIO.
	KindSyncEIO = "sync-eio"
	// KindSyncLie acknowledges a file fsync without flushing — the data
	// stays volatile and a subsequent Sim.Crash drops it.
	KindSyncLie = "sync-lie"
	// KindTornRename tears a rename: the source is gone but the
	// destination was never created, as if the machine died between the
	// unlink and the link.
	KindTornRename = "torn-rename"
)

// kinds lists every fault kind in deterministic order.
var kinds = []string{
	KindShortWrite, KindWriteEIO, KindWriteENOSPC,
	KindSyncEIO, KindSyncLie, KindTornRename,
}

// FaultError marks an error as deliberately injected by a Plan. It
// wraps the underlying errno (syscall.EIO or syscall.ENOSPC) so
// errors.Is classification still works.
type FaultError struct {
	// Kind is the fault kind that fired (one of the Kind* constants).
	Kind string
	// Op is the file operation that was hit ("write", "sync", ...).
	Op string
	// Path is the file the operation targeted.
	Path string
	// Err is the simulated errno.
	Err error
}

// Error implements the error interface.
func (e *FaultError) Error() string {
	return fmt.Sprintf("iofault %s: %s %s: %v", e.Kind, e.Op, e.Path, e.Err)
}

// Unwrap exposes the simulated errno to errors.Is.
func (e *FaultError) Unwrap() error { return e.Err }

// IsInjected reports whether err (or anything it wraps) was injected
// by a Plan rather than produced by the real filesystem.
func IsInjected(err error) bool {
	for err != nil {
		if _, ok := err.(*FaultError); ok {
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

// Plan is a seeded, deterministic schedule of I/O faults. Each fault
// kind can fire probabilistically (Rate, per matching operation) or
// exactly once on the Nth matching operation (At, 1-based); both may
// be combined. MaxFaults caps the total number of injected faults
// across all kinds (0 means unlimited). The zero Plan injects nothing.
type Plan struct {
	// Seed keys the probabilistic triggers; two Plans with equal Seed
	// and rates fire on the same operation sequence.
	Seed int64
	// Rate holds the per-operation firing probability of each kind.
	Rate map[string]float64
	// At holds the exact 1-based operation ordinal on which each kind
	// fires once.
	At map[string]int64
	// MaxFaults caps total injected faults; 0 means unlimited.
	MaxFaults int64

	mu    sync.Mutex
	rng   *rand.Rand
	ops   map[string]int64 // operations observed, per kind
	fired map[string]int64 // faults injected, per kind
	total int64
}

// NewPlan returns an empty plan with the given seed; populate Rate/At
// via SetRate and SetAt.
func NewPlan(seed int64) *Plan { return &Plan{Seed: seed} }

// SetRate sets the per-operation probability of kind and returns the
// plan for chaining.
func (p *Plan) SetRate(kind string, rate float64) *Plan {
	if p.Rate == nil {
		p.Rate = map[string]float64{}
	}
	p.Rate[kind] = rate
	return p
}

// SetAt arms kind to fire on its nth matching operation (1-based) and
// returns the plan for chaining.
func (p *Plan) SetAt(kind string, n int64) *Plan {
	if p.At == nil {
		p.At = map[string]int64{}
	}
	p.At[kind] = n
	return p
}

// hit records one matching operation for kind and reports whether the
// fault fires on it.
func (p *Plan) hit(kind string) bool {
	if p == nil {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.ops == nil {
		p.ops = map[string]int64{}
		p.fired = map[string]int64{}
		p.rng = rand.New(rand.NewSource(p.Seed))
	}
	p.ops[kind]++
	if p.MaxFaults > 0 && p.total >= p.MaxFaults {
		return false
	}
	fire := false
	if n := p.At[kind]; n > 0 && p.ops[kind] == n {
		fire = true
	}
	if r := p.Rate[kind]; !fire && r > 0 && p.rng.Float64() < r {
		fire = true
	}
	if fire {
		p.fired[kind]++
		p.total++
	}
	return fire
}

// Fired returns a copy of the per-kind injected-fault counters.
func (p *Plan) Fired() map[string]int64 {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[string]int64, len(p.fired))
	for k, v := range p.fired {
		out[k] = v
	}
	return out
}

// FiredTotal returns the total number of faults injected so far.
func (p *Plan) FiredTotal() int64 {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.total
}

// String renders the armed triggers, e.g.
// "seed=7,max=2,short-write=0.01,sync-lie@3".
func (p *Plan) String() string {
	if p == nil {
		return "off"
	}
	parts := []string{fmt.Sprintf("seed=%d", p.Seed)}
	if p.MaxFaults > 0 {
		parts = append(parts, fmt.Sprintf("max=%d", p.MaxFaults))
	}
	for _, k := range kinds {
		if r := p.Rate[k]; r > 0 {
			parts = append(parts, fmt.Sprintf("%s=%g", k, r))
		}
		if n := p.At[k]; n > 0 {
			parts = append(parts, fmt.Sprintf("%s@%d", k, n))
		}
	}
	return strings.Join(parts, ",")
}

// Wrap layers plan's fault injection over fsys. A nil plan returns
// fsys unchanged. Reads are never faulted — the recovery paths must
// see exactly the bytes that survived — only writes, syncs, and
// renames are.
func Wrap(fsys FS, plan *Plan) FS {
	if plan == nil {
		return fsys
	}
	return &faultFS{fs: fsys, plan: plan}
}

// faultFS injects Plan faults into the mutating operations of an FS.
type faultFS struct {
	fs   FS
	plan *Plan
}

func (f *faultFS) OpenFile(path string, flag int, perm fs.FileMode) (File, error) {
	file, err := f.fs.OpenFile(path, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultFile{File: file, plan: f.plan, path: path}, nil
}

func (f *faultFS) ReadFile(path string) ([]byte, error)       { return f.fs.ReadFile(path) }
func (f *faultFS) ReadDir(path string) ([]fs.DirEntry, error) { return f.fs.ReadDir(path) }
func (f *faultFS) Stat(path string) (fs.FileInfo, error)      { return f.fs.Stat(path) }
func (f *faultFS) Remove(path string) error                   { return f.fs.Remove(path) }
func (f *faultFS) RemoveAll(path string) error                { return f.fs.RemoveAll(path) }
func (f *faultFS) MkdirAll(path string, perm fs.FileMode) error {
	return f.fs.MkdirAll(path, perm)
}

func (f *faultFS) Rename(oldpath, newpath string) error {
	if f.plan.hit(KindTornRename) {
		// A torn rename is the crash state "unlinked but never linked"
		// surfaced synchronously: the source vanishes, the destination
		// is never created, and no error is reported — exactly what a
		// power cut between the two metadata updates leaves behind.
		_ = f.fs.Remove(oldpath)
		return nil
	}
	return f.fs.Rename(oldpath, newpath)
}

func (f *faultFS) SyncDir(path string) error {
	if f.plan.hit(KindSyncEIO) {
		return &FaultError{Kind: KindSyncEIO, Op: "syncdir", Path: path, Err: syscall.EIO}
	}
	return f.fs.SyncDir(path)
}

// faultFile injects write/sync faults into a single open file.
type faultFile struct {
	File
	plan *Plan
	path string
}

func (f *faultFile) Write(p []byte) (int, error) {
	if f.plan.hit(KindWriteEIO) {
		return 0, &FaultError{Kind: KindWriteEIO, Op: "write", Path: f.path, Err: syscall.EIO}
	}
	if f.plan.hit(KindWriteENOSPC) {
		return 0, &FaultError{Kind: KindWriteENOSPC, Op: "write", Path: f.path, Err: syscall.ENOSPC}
	}
	if len(p) > 1 && f.plan.hit(KindShortWrite) {
		n, err := f.File.Write(p[:len(p)/2])
		if err != nil {
			return n, err
		}
		return n, &FaultError{Kind: KindShortWrite, Op: "write", Path: f.path, Err: syscall.EIO}
	}
	return f.File.Write(p)
}

func (f *faultFile) Sync() error {
	if f.plan.hit(KindSyncLie) {
		// Acknowledge without flushing: over Sim the data stays
		// volatile and the next Crash drops it; over the real
		// filesystem this is a no-op acknowledgment.
		return nil
	}
	if f.plan.hit(KindSyncEIO) {
		return &FaultError{Kind: KindSyncEIO, Op: "sync", Path: f.path, Err: syscall.EIO}
	}
	return f.File.Sync()
}
