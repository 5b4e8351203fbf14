package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"unsafe"
)

// Trace format v3: columnar annotated chunk files.
//
// v1/v2 traces store raw vm.Events — compact varint records that every
// reader must re-decode and every analyzer must re-annotate.  v3 stores
// the *annotated* columnar chunks the replay ring broadcasts
// (limits.Chunk: 12 bytes/event, struct-of-arrays), so a warm reader
// can hand the on-disk lanes straight to the fused stepping kernel with
// no VM run, no annotation, and — on little-endian hosts — no copy.
//
// Layout (all integers little-endian):
//
//	header   "ILPT" 0x03 0x00 0x00 0x00                      8 bytes
//	         fpLen uint32 | fingerprint | pad to 4           4+⌈fpLen⌉₄
//	         metaLen uint32 | meta | pad to 4                4+⌈metaLen⌉₄
//	         headerCRC uint32 (over both length-prefixed     4 bytes
//	         blocks, pads included)
//	frame*   count uint32 (>0)                               4 bytes
//	         base  int64                                     8 bytes
//	         addr[count] idx[count] flags[count] uint32      12·count
//	         frameCRC uint32 (over count..flags)             4 bytes
//	footer   count==0 sentinel uint32                        4 bytes
//	         events uint64 | frames uint32                   12 bytes
//	         footerCRC uint32 (over sentinel..frames)        4 bytes
//
// Every frame is 16+12·count bytes — a multiple of 4 — and the first
// frame starts 4-aligned, so each lane within every frame is 4-aligned
// and eligible for a zero-copy []uint32 view.  The count==0 sentinel
// cannot begin a frame, making the footer unambiguous; the footer CRC
// plus per-frame CRCs give the same torn-tail guarantee as the v2
// event-count footer: a truncated or bit-flipped file either salvages a
// prefix of complete frames or is rejected — never a wrong event.

// chunkMagic is the 8-byte v3 file header: the shared trace magic, the
// version byte, and three reserved zero bytes that keep frames aligned.
var chunkMagic = [8]byte{'I', 'L', 'P', 'T', 3, 0, 0, 0}

// maxChunkBlock bounds the fingerprint and meta header blocks; both are
// small (a cache key and a JSON sidecar), so anything larger is treated
// as corruption rather than allocated.
const maxChunkBlock = 1 << 20

// maxFrameEvents bounds a single frame's event count.  Writers emit
// ring-sized chunks (4096 events); the reader accepts any count whose
// frame fits in the file, capped here so a corrupt count cannot drive a
// huge allocation on the copy-decode path.
const maxFrameEvents = 1 << 24

// hostLittleEndian reports whether the running machine stores integers
// little-endian — the precondition for aliasing on-disk lanes as
// []uint32 without decoding.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// ChunkWriter streams annotated columnar frames into a v3 chunk file.
// Frames are CRC-framed individually and the Close footer records the
// totals, so a reader can prove exactly how much of a torn file is
// intact.  ChunkWriter buffers internally; the caller owns syncing and
// closing the underlying file.
type ChunkWriter struct {
	w      *bufio.Writer
	frames uint32
	events uint64
	buf    []byte
	err    error
}

// NewChunkWriter writes the v3 header — magic, fingerprint block, meta
// block, header CRC — and returns a writer ready for WriteFrame.  The
// fingerprint identifies what produced the trace (see
// internal/tracestore.Key); meta is an opaque sidecar (may be nil).
func NewChunkWriter(w io.Writer, fingerprint, meta []byte) (*ChunkWriter, error) {
	if len(fingerprint) > maxChunkBlock || len(meta) > maxChunkBlock {
		return nil, fmt.Errorf("trace: chunk header block too large (%d/%d bytes)", len(fingerprint), len(meta))
	}
	cw := &ChunkWriter{w: bufio.NewWriterSize(w, 1<<16)}
	var hdr []byte
	hdr = appendChunkBlock(hdr, fingerprint)
	hdr = appendChunkBlock(hdr, meta)
	hdr = binary.LittleEndian.AppendUint32(hdr, crc32.ChecksumIEEE(hdr))
	if _, err := cw.w.Write(chunkMagic[:]); err != nil {
		return nil, err
	}
	if _, err := cw.w.Write(hdr); err != nil {
		return nil, err
	}
	return cw, nil
}

// appendChunkBlock appends one length-prefixed header block, padded to a
// 4-byte boundary so every later offset stays 4-aligned.
func appendChunkBlock(dst, b []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(b)))
	dst = append(dst, b...)
	for len(dst)%4 != 0 {
		dst = append(dst, 0)
	}
	return dst
}

// WriteFrame appends one columnar frame: the base sequence number of
// the first event plus the three equal-length lanes.  Empty frames are
// skipped (a zero count is the footer sentinel).  The first error is
// sticky and re-returned by Close.
func (cw *ChunkWriter) WriteFrame(base int64, addr, idx, flags []uint32) error {
	if cw.err != nil {
		return cw.err
	}
	n := len(idx)
	if len(addr) != n || len(flags) != n {
		cw.err = fmt.Errorf("trace: ragged chunk frame (%d/%d/%d)", len(addr), n, len(flags))
		return cw.err
	}
	if n == 0 {
		return nil
	}
	if n > maxFrameEvents {
		cw.err = fmt.Errorf("trace: chunk frame of %d events exceeds limit", n)
		return cw.err
	}
	b := cw.buf[:0]
	b = binary.LittleEndian.AppendUint32(b, uint32(n))
	b = binary.LittleEndian.AppendUint64(b, uint64(base))
	b = appendLane(b, addr)
	b = appendLane(b, idx)
	b = appendLane(b, flags)
	b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
	cw.buf = b[:0]
	if _, err := cw.w.Write(b); err != nil {
		cw.err = err
		return err
	}
	cw.frames++
	cw.events += uint64(n)
	return nil
}

// appendLane appends one []uint32 lane little-endian.
func appendLane(dst []byte, lane []uint32) []byte {
	for _, v := range lane {
		dst = binary.LittleEndian.AppendUint32(dst, v)
	}
	return dst
}

// Close writes the CRC-protected footer (frame sentinel, event and
// frame totals) and flushes.  It does not close the underlying writer.
func (cw *ChunkWriter) Close() error {
	if cw.err != nil {
		return cw.err
	}
	var b [20]byte
	binary.LittleEndian.PutUint32(b[0:], 0) // sentinel: no frame has count 0
	binary.LittleEndian.PutUint64(b[4:], cw.events)
	binary.LittleEndian.PutUint32(b[12:], cw.frames)
	binary.LittleEndian.PutUint32(b[16:], crc32.ChecksumIEEE(b[:16]))
	if _, err := cw.w.Write(b[:]); err != nil {
		cw.err = err
		return err
	}
	if err := cw.w.Flush(); err != nil {
		cw.err = err
		return err
	}
	return nil
}

// chunkFrame locates one validated frame inside the file's byte buffer.
type chunkFrame struct {
	base int64
	off  int // offset of the addr lane
	n    int
}

// ChunkFile is an opened v3 chunk file.  OpenChunkFile validates every
// CRC up front, so Frame never fails: after a clean open the file
// cannot produce a wrong event mid-replay.
type ChunkFile struct {
	data        []byte
	fingerprint []byte
	meta        []byte
	frames      []chunkFrame
	events      int64
	complete    bool
}

// IsChunkFile reports whether data begins with the v3 chunk-file magic
// — the sniff tooling uses to route a file to OpenChunkFile instead of
// the v2 event-stream reader, which shares the "ILPT" prefix but not
// the version byte.
func IsChunkFile(data []byte) bool {
	return len(data) >= 5 && string(data[:4]) == string(chunkMagic[:4]) && data[4] == 3
}

// OpenChunkFile parses and fully validates a v3 chunk file from an
// in-memory (typically mmap'd) byte buffer.  On success every frame and
// the footer have checked CRCs.  On a torn or corrupted file it returns
// both the salvaged prefix of complete, CRC-valid frames and a non-nil
// error wrapping ErrBadTrace — tooling may inspect the prefix, cache
// readers must treat the file as a miss.  The returned ChunkFile
// aliases data; the caller keeps data alive (and unmodified) for the
// ChunkFile's lifetime.
func OpenChunkFile(data []byte) (*ChunkFile, error) {
	if len(data) < len(chunkMagic) {
		return nil, fmt.Errorf("%w: short header", ErrBadTrace)
	}
	if string(data[:4]) != string(chunkMagic[:4]) {
		return nil, fmt.Errorf("%w: bad magic", ErrBadTrace)
	}
	if data[4] != 3 || data[5] != 0 || data[6] != 0 || data[7] != 0 {
		return nil, fmt.Errorf("%w: unsupported chunk version %d", ErrBadTrace, data[4])
	}
	off := len(chunkMagic)
	hdrStart := off
	fingerprint, off, err := readChunkBlock(data, off)
	if err != nil {
		return nil, err
	}
	meta, off, err := readChunkBlock(data, off)
	if err != nil {
		return nil, err
	}
	if off+4 > len(data) {
		return nil, fmt.Errorf("%w: truncated header CRC", ErrBadTrace)
	}
	if crc32.ChecksumIEEE(data[hdrStart:off]) != binary.LittleEndian.Uint32(data[off:]) {
		return nil, fmt.Errorf("%w: header CRC mismatch", ErrBadTrace)
	}
	off += 4

	f := &ChunkFile{data: data, fingerprint: fingerprint, meta: meta}
	for {
		if off+4 > len(data) {
			return f, fmt.Errorf("%w: truncated at frame %d (no footer)", ErrBadTrace, len(f.frames))
		}
		n := int(binary.LittleEndian.Uint32(data[off:]))
		if n == 0 {
			// Footer.
			if off+20 > len(data) {
				return f, fmt.Errorf("%w: truncated footer", ErrBadTrace)
			}
			if crc32.ChecksumIEEE(data[off:off+16]) != binary.LittleEndian.Uint32(data[off+16:]) {
				return f, fmt.Errorf("%w: footer CRC mismatch", ErrBadTrace)
			}
			events := binary.LittleEndian.Uint64(data[off+4:])
			frames := binary.LittleEndian.Uint32(data[off+12:])
			if int64(events) != f.events || int(frames) != len(f.frames) {
				return f, fmt.Errorf("%w: footer totals disagree (%d events/%d frames on disk, %d/%d counted)",
					ErrBadTrace, events, frames, f.events, len(f.frames))
			}
			if off+20 != len(data) {
				return f, fmt.Errorf("%w: %d trailing bytes after footer", ErrBadTrace, len(data)-off-20)
			}
			f.complete = true
			return f, nil
		}
		if n > maxFrameEvents {
			return f, fmt.Errorf("%w: frame %d count %d exceeds limit", ErrBadTrace, len(f.frames), n)
		}
		size := 12 + 12*n + 4
		if off+size > len(data) {
			return f, fmt.Errorf("%w: truncated frame %d", ErrBadTrace, len(f.frames))
		}
		if crc32.ChecksumIEEE(data[off:off+size-4]) != binary.LittleEndian.Uint32(data[off+size-4:]) {
			return f, fmt.Errorf("%w: frame %d CRC mismatch", ErrBadTrace, len(f.frames))
		}
		f.frames = append(f.frames, chunkFrame{
			base: int64(binary.LittleEndian.Uint64(data[off+4:])),
			off:  off + 12,
			n:    n,
		})
		f.events += int64(n)
		off += size
	}
}

// readChunkBlock decodes one padded length-prefixed header block,
// returning the block bytes (aliasing data) and the next offset.
func readChunkBlock(data []byte, off int) ([]byte, int, error) {
	if off+4 > len(data) {
		return nil, 0, fmt.Errorf("%w: truncated header block", ErrBadTrace)
	}
	n := int(binary.LittleEndian.Uint32(data[off:]))
	if n > maxChunkBlock {
		return nil, 0, fmt.Errorf("%w: header block of %d bytes exceeds limit", ErrBadTrace, n)
	}
	off += 4
	if off+n > len(data) {
		return nil, 0, fmt.Errorf("%w: truncated header block", ErrBadTrace)
	}
	b := data[off : off+n]
	off += n
	for off%4 != 0 {
		off++
	}
	if off > len(data) {
		return nil, 0, fmt.Errorf("%w: truncated header block padding", ErrBadTrace)
	}
	return b, off, nil
}

// Fingerprint returns the producer fingerprint block (aliases the
// file's buffer).
func (f *ChunkFile) Fingerprint() []byte { return f.fingerprint }

// Meta returns the opaque meta block (aliases the file's buffer).
func (f *ChunkFile) Meta() []byte { return f.meta }

// NumFrames reports how many validated frames the file holds.
func (f *ChunkFile) NumFrames() int { return len(f.frames) }

// Events reports the total events across validated frames.
func (f *ChunkFile) Events() int64 { return f.events }

// Complete reports whether the file parsed end to end, footer included.
// A salvaged prefix (OpenChunkFile returned an error) is incomplete.
func (f *ChunkFile) Complete() bool { return f.complete }

// Frame returns frame i's base sequence number and its three columnar
// lanes.  On little-endian hosts the lanes alias the file's buffer
// (zero-copy) and must be treated as read-only; elsewhere they are
// decoded copies.  Frame i was CRC-validated at open, so the view is
// always trustworthy.
func (f *ChunkFile) Frame(i int) (base int64, addr, idx, flags []uint32) {
	fr := f.frames[i]
	addr = laneView(f.data[fr.off:], fr.n)
	idx = laneView(f.data[fr.off+4*fr.n:], fr.n)
	flags = laneView(f.data[fr.off+8*fr.n:], fr.n)
	return fr.base, addr, idx, flags
}

// laneView aliases b's first 4n bytes as a []uint32 when the host
// byte order and alignment allow, decoding a copy otherwise.
func laneView(b []byte, n int) []uint32 {
	if n == 0 {
		return nil
	}
	if hostLittleEndian && uintptr(unsafe.Pointer(&b[0]))%4 == 0 {
		return unsafe.Slice((*uint32)(unsafe.Pointer(&b[0])), n)
	}
	out := make([]uint32, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(b[4*i:])
	}
	return out
}
