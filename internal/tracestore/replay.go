package tracestore

import (
	"bytes"
	"context"
	"fmt"

	"ilplimit/internal/iofault"
	"ilplimit/internal/limits"
	"ilplimit/internal/trace"
)

// Replay is an opened cached trace, fully CRC-validated: every frame
// was checked before Open returned, so a Run can never surface a
// corrupt event mid-stream — the only mid-run failures are the
// caller's own (cancellation, analyzer panic).
type Replay struct {
	data   []byte
	munmap func() error
	cf     *trace.ChunkFile
}

// Open looks the key up in the store.  A missing file returns ErrMiss;
// a torn, corrupt, or fingerprint-skewed file returns a descriptive
// error.  Either way the caller falls back to the live producer — a bad
// cache can cost time, never correctness.  On unix with the real
// filesystem the file is mmap'd so frames alias the page cache
// zero-copy; otherwise (or if mmap fails) it is read into memory.
func (s *Store) Open(k Key) (*Replay, error) {
	path := s.Path(k)
	if _, err := s.fsys.Stat(path); err != nil {
		return nil, fmt.Errorf("%w for %s", ErrMiss, k.Bench)
	}
	data, munmap, err := s.readAll(path)
	if err != nil {
		return nil, fmt.Errorf("tracestore: %s: %w", path, err)
	}
	closeData := func() {
		if munmap != nil {
			munmap()
		}
	}
	cf, err := trace.OpenChunkFile(data)
	if err != nil {
		closeData()
		return nil, fmt.Errorf("tracestore: %s: %w", path, err)
	}
	if !bytes.Equal(cf.Fingerprint(), k.Fingerprint()) {
		// Format before closeData: the fingerprint aliases the mapping.
		err := fmt.Errorf("tracestore: %s: fingerprint skew (file %q, want %q)",
			path, cf.Fingerprint(), k.Fingerprint())
		closeData()
		return nil, err
	}
	return &Replay{data: data, munmap: munmap, cf: cf}, nil
}

// readAll maps or reads the file.  mmap needs a real file descriptor,
// so it is only attempted on the plain OS filesystem — a wrapped
// (fault-injected) or simulated FS always takes the copy path.
func (s *Store) readAll(path string) ([]byte, func() error, error) {
	if s.fsys == iofault.OS() {
		if data, munmap, err := mmapFile(path); err == nil {
			return data, munmap, nil
		}
	}
	data, err := s.fsys.ReadFile(path)
	return data, nil, err
}

// Meta returns the opaque sidecar block stored with the trace.
func (r *Replay) Meta() []byte { return r.cf.Meta() }

// Events reports the trace's total event count.
func (r *Replay) Events() int64 { return r.cf.Events() }

// Frames reports the trace's frame count.
func (r *Replay) Frames() int { return r.cf.NumFrames() }

// Close releases the mapping.  The Replay (and any chunk views handed
// out by Run) must not be used afterwards.
func (r *Replay) Close() error {
	if r.munmap != nil {
		err := r.munmap()
		r.munmap = nil
		return err
	}
	return nil
}

// Run streams the cached trace through the analyzers — the zero-copy
// replacement for the VM + annotation + ring pipeline.  It wraps each
// on-disk frame as a limits.ChunkView and hands the frames to
// limits.ReplayChunks, which re-applies the predictor lane assignment
// (the caller's Key.Lanes must have come from the same analyzer set),
// splits the analyzers into the same consumers a live replay steps, and
// walks the frames with one independent cursor per consumer.  Analyzer
// panics are rethrown as *limits.PanicError after every worker stops,
// and cancellation returns an error wrapping vm.ErrCanceled, both
// exactly like the live replay.  serial has no effect.
func (r *Replay) Run(ctx context.Context, serial bool, analyzers ...*limits.Analyzer) error {
	views := make([]*limits.Chunk, r.cf.NumFrames())
	for i := range views {
		views[i] = limits.ChunkView(r.cf.Frame(i))
	}
	return limits.ReplayChunks(ctx, views, analyzers...)
}
