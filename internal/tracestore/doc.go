// Package tracestore is the persistent, content-addressed annotated
// trace store: trace once, analyze everywhere.
//
// The VM producer — interpretation plus annotation — is the one serial
// stage every analysis run repeats, even though the dynamic instruction
// stream it derives is immutable for a given (program, predictor
// configuration).  The store materializes that stream once: a replay
// spills its columnar limits.Chunk broadcast (12 bytes/event,
// struct-of-arrays) through a limits.ChunkSink into a CRC-framed v3
// chunk file (trace.ChunkWriter), written crash-consistently through
// internal/iofault (unique temp file → fsync → rename → directory
// fsync).  Files are content-addressed by a Key fingerprint covering
// the benchmark name, a CRC32 of the compiled program, the Static
// annotation tables, the predictor configuration, and the lane count,
// so a skewed compiler, flag set, or predictor can never satisfy a
// lookup it shouldn't.
//
// On a warm hit the file is mmap'd (with a copy fallback for
// non-unix hosts, faulted filesystems, and misaligned or big-endian
// cases) and each frame becomes a zero-copy limits.ChunkView streamed
// through the same consumers a live replay steps (limits.ReplayChunks)
// — no VM run, no annotation, no producer, no flow control: the frames
// fill the live replay's broadcast ring, which starts closed, and each
// consumer drains it on its own goroutine.  Every
// frame CRC is validated at Open, before any analyzer steps, so a
// corrupt, torn, or fingerprint-skewed file is indistinguishable from a
// miss: callers fall back to the live producer and results never
// change, only cost.
package tracestore
