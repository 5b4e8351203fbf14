// Package iofault abstracts the narrow slice of the filesystem the
// crash-consistent layers (internal/journal, internal/trace) write
// through, so deterministic I/O faults can be injected underneath them.
//
// Three implementations of the FS interface exist:
//
//   - OS() is the real filesystem — the production path, a thin veneer
//     over the os package with an explicit directory-fsync operation.
//   - Wrap(fs, plan) injects the failure modes of a misbehaving disk on
//     top of any FS from a seeded Plan: short writes, EIO, ENOSPC,
//     fsync-lies (acknowledge then drop), and torn renames.
//   - NewSim() is an in-memory filesystem that tracks durable state
//     separately from volatile state — a write is volatile until the
//     file is fsynced, a created or renamed entry is volatile until its
//     parent directory is fsynced — and whose Crash() discards
//     everything volatile, the discipline of crash-consistency testing
//     tools like ALICE and CrashMonkey.
//
// Composing Wrap over NewSim gives the full torn-write model: a lying
// fsync returns success but leaves the data volatile, so the next
// Crash() silently drops it exactly as a buggy disk cache would.
//
// CommitFile is the one commit step of a write-to-temp-then-rename
// file (trace.WriteFile, the trace store's populate): fsync, close,
// rename over the final path, fsync the directory, and remove the temp
// file on failure.
package iofault
