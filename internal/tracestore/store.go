package tracestore

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"

	"ilplimit/internal/iofault"
	"ilplimit/internal/isa"
	"ilplimit/internal/limits"
	"ilplimit/internal/trace"
)

// AnnotationVersion names the semantic version of the annotation a
// stored trace carries.  Bump it whenever the meaning of the chunk
// lanes changes (new Flag* bits, different lane encoding, stepper
// contract changes): every existing cache entry then misses cleanly
// instead of replaying stale semantics.
const AnnotationVersion = 1

// ErrMiss reports a cache lookup that found no file for the key.  A
// corrupt or fingerprint-skewed file is reported as its own error, not
// ErrMiss, so callers can log the difference — both mean "run live".
var ErrMiss = errors.New("tracestore: no cached trace")

// Key identifies one annotated trace: the same key always replays the
// same event stream with the same lane bits.  Its canonical encoding
// (Fingerprint) is embedded in the file and compared on Open, so a hash
// collision in the filename cannot serve the wrong trace.
type Key struct {
	// Bench is the human-readable benchmark or study-target name; it
	// prefixes the filename for operator-friendly cache directories.
	Bench string
	// ProgramCRC digests the compiled program (ProgramCRC); traces are
	// invalid across any program change, including scale and
	// optimization differences.
	ProgramCRC uint32
	// Annotation digests the Static annotation tables
	// (limits.Static.AnnotationFingerprint).
	Annotation uint32
	// Predictors names the predictor configuration that resolved the
	// lane bits, in lane order (e.g. "profile" or
	// "profile,dynamic,btfn").
	Predictors string
	// Lanes is the predictor lane count the trace was annotated for
	// (limits.AssignReplayLanes).
	Lanes int
}

// Fingerprint is the key's canonical byte encoding, embedded verbatim
// in every stored file and matched byte-for-byte on Open.
func (k Key) Fingerprint() []byte {
	return []byte(fmt.Sprintf("ilpc%d bench=%s prog=%08x annot=%08x pred=%s lanes=%d",
		AnnotationVersion, k.Bench, k.ProgramCRC, k.Annotation, k.Predictors, k.Lanes))
}

// filename content-addresses the key: the sanitized bench name for
// operators, a fingerprint digest for uniqueness.
func (k Key) filename() string {
	sum := sha256.Sum256(k.Fingerprint())
	name := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			return r
		}
		return '_'
	}, k.Bench)
	return fmt.Sprintf("%s-%x.ilpc", name, sum[:8])
}

// ProgramCRC digests everything about a compiled program that shapes
// its dynamic trace: entry point, every instruction's rendered form,
// the data segment, the jump tables, and procedure boundaries.
func ProgramCRC(p *isa.Program) uint32 {
	h := crc32.NewIEEE()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(p.Entry))
	h.Write(b[:])
	for i := range p.Instrs {
		io.WriteString(h, p.Instrs[i].String())
		h.Write([]byte{'\n'})
	}
	for _, w := range p.Data {
		binary.LittleEndian.PutUint64(b[:], uint64(w))
		h.Write(b[:])
	}
	for _, t := range p.Tables {
		binary.LittleEndian.PutUint64(b[:], uint64(len(t)))
		h.Write(b[:])
		for _, x := range t {
			binary.LittleEndian.PutUint64(b[:], uint64(x))
			h.Write(b[:])
		}
	}
	for _, proc := range p.Procs {
		io.WriteString(h, proc.Name)
		binary.LittleEndian.PutUint64(b[:], uint64(proc.Start))
		h.Write(b[:])
		binary.LittleEndian.PutUint64(b[:], uint64(proc.End))
		h.Write(b[:])
	}
	return h.Sum32()
}

// Store is one cache directory of annotated trace files.  Concurrent
// readers and writers are safe: writers build under unique temp names
// and commit with an atomic rename, readers validate fingerprints and
// CRCs, and the worst outcome of any race is a clean miss.
type Store struct {
	dir  string
	fsys iofault.FS
}

// Open opens (creating if needed) the store directory on fsys.
func Open(fsys iofault.FS, dir string) (*Store, error) {
	if err := fsys.MkdirAll(dir, 0o777); err != nil {
		return nil, fmt.Errorf("tracestore: %w", err)
	}
	// A directory MkdirAll just created is not durable until its parent
	// is synced; without this, a crash after a committed entry could
	// drop the whole cache directory.  Best-effort: a store that cannot
	// sync its ancestry still serves reads.
	for p := filepath.Clean(dir); ; {
		parent := filepath.Dir(p)
		if err := fsys.SyncDir(parent); err != nil {
			break
		}
		if parent == p {
			break
		}
		p = parent
	}
	return &Store{dir: dir, fsys: fsys}, nil
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// Path returns the file path a key is stored at.
func (s *Store) Path(k Key) string { return filepath.Join(s.dir, k.filename()) }

// populateSeq disambiguates concurrent temp files within one process;
// the pid disambiguates across processes sharing a store directory.
var populateSeq atomic.Int64

// Populate is one in-flight store write.  Feed it chunks through
// Sink(), then either Commit (after the sink saw its nil end-of-stream
// terminator) or Abort.  The final file appears atomically at Commit;
// a crash at any earlier point leaves at most a stray temp file that
// can never be confused with a committed trace.
type Populate struct {
	s      *Store
	final  string
	tmp    string
	f      iofault.File
	w      *trace.ChunkWriter
	events int64
	err    error
	eof    bool
	done   bool
}

// BeginPopulate starts writing the trace for key, with meta stored as
// the file's opaque sidecar block (may be nil).
func (s *Store) BeginPopulate(k Key, meta []byte) (*Populate, error) {
	final := s.Path(k)
	tmp := fmt.Sprintf("%s.%d.%d.tmp", final, os.Getpid(), populateSeq.Add(1))
	f, err := s.fsys.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o666)
	if err != nil {
		return nil, fmt.Errorf("tracestore: %w", err)
	}
	w, err := trace.NewChunkWriter(f, k.Fingerprint(), meta)
	if err != nil {
		f.Close()
		s.fsys.Remove(tmp)
		return nil, fmt.Errorf("tracestore: %w", err)
	}
	return &Populate{s: s, final: final, tmp: tmp, f: f, w: w}, nil
}

// Sink adapts the populate into a limits.ChunkSink.  Write errors are
// latched: the first one is returned (detaching the sink from the
// replay) and re-reported by Commit.  The nil terminator marks the
// stream complete; Commit refuses a populate that never saw it.
func (p *Populate) Sink() limits.ChunkSink {
	return func(c *limits.Chunk) error {
		if p.err != nil {
			return p.err
		}
		if c == nil {
			p.eof = true
			return nil
		}
		base, addr, idx, flags := c.Lanes()
		if err := p.w.WriteFrame(base, addr, idx, flags); err != nil {
			p.err = err
			return err
		}
		p.events += int64(len(idx))
		return nil
	}
}

// Events reports how many events have been written so far.
func (p *Populate) Events() int64 { return p.events }

// Commit finishes the file — footer, fsync, atomic rename into place,
// directory fsync — making the trace visible to readers.  It fails
// (removing the temp file) if any write errored or the sink never saw
// the end-of-stream terminator, so a partial trace is never published.
func (p *Populate) Commit() error {
	if p.done {
		return errors.New("tracestore: populate already finished")
	}
	if p.err == nil && !p.eof {
		p.err = errors.New("tracestore: replay ended without completing the trace stream")
	}
	if p.err != nil {
		p.Abort()
		return fmt.Errorf("tracestore: %w", p.err)
	}
	p.done = true
	if err := iofault.CommitFile(p.s.fsys, p.f, p.tmp, p.final, p.w.Close()); err != nil {
		return fmt.Errorf("tracestore: %w", err)
	}
	return nil
}

// Abort discards the populate, removing its temp file.  Idempotent and
// safe after a failed Commit.
func (p *Populate) Abort() {
	if p.done {
		return
	}
	p.done = true
	if p.f != nil {
		p.f.Close()
	}
	p.s.fsys.Remove(p.tmp)
}
