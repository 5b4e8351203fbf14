package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"ilplimit/internal/vm"
)

// Trace files persist dynamic traces the way pixie-based workflows stored
// them on disk.  Format: a 5-byte header ("ILPT" + version), then one
// record per event:
//
//	control byte: bit0 = has address, bit1 = branch taken
//	uvarint      static instruction index
//	uvarint      address (only when bit0 is set)
//
// and a 0xFF terminator byte (control bytes never exceed 0x03).  Sequence
// numbers are implicit: the reader assigns them in order.
//
// Version 2 (what NewWriter emits) appends a 12-byte footer after the
// terminator: the event count as a little-endian uint64 and an IEEE CRC32
// of the record payload (every byte between header and terminator) as a
// little-endian uint32.  The footer turns two silent failure modes into
// loud ones — a bit flip that still parses is caught by the CRC, and a
// truncated file is distinguished from a complete one — while readers
// still accept footer-less version-1 files.
const (
	traceMagic = "ILPT"
	// versionV1 files have no footer; versionV2 is what NewWriter emits.
	versionV1    = 1
	versionV2    = 2
	traceVersion = versionV2
	endMarker    = 0xFF
	footerLen    = 12
)

// ErrBadTrace reports a malformed trace file.
var ErrBadTrace = errors.New("trace: malformed trace file")

// Writer streams events to a trace file (format version 2).
type Writer struct {
	w   *bufio.Writer
	buf [1 + 2*binary.MaxVarintLen64]byte
	sum uint32 // running CRC32 of the record payload
	n   int64
}

// NewWriter writes the header and returns a writer.  Call Close to emit
// the terminator and the count/CRC footer and flush.
func NewWriter(w io.Writer) (*Writer, error) {
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.WriteString(traceMagic); err != nil {
		return nil, err
	}
	if err := bw.WriteByte(traceVersion); err != nil {
		return nil, err
	}
	return &Writer{w: bw}, nil
}

// Write appends one event.  The event's Seq is not stored; readers
// reconstruct it positionally.
func (w *Writer) Write(ev vm.Event) error {
	ctl := byte(0)
	if ev.Addr != 0 {
		ctl |= 1
	}
	if ev.Taken {
		ctl |= 2
	}
	w.buf[0] = ctl
	n := 1 + binary.PutUvarint(w.buf[1:], uint64(ev.Idx))
	if ctl&1 != 0 {
		n += binary.PutUvarint(w.buf[n:], uint64(ev.Addr))
	}
	if _, err := w.w.Write(w.buf[:n]); err != nil {
		return err
	}
	w.sum = crc32.Update(w.sum, crc32.IEEETable, w.buf[:n])
	w.n++
	return nil
}

// Count reports how many events have been written.
func (w *Writer) Count() int64 { return w.n }

// Close writes the terminator and the v2 footer (event count + payload
// CRC32) and flushes.
func (w *Writer) Close() error {
	if err := w.w.WriteByte(endMarker); err != nil {
		return err
	}
	var foot [footerLen]byte
	binary.LittleEndian.PutUint64(foot[:8], uint64(w.n))
	binary.LittleEndian.PutUint32(foot[8:], w.sum)
	if _, err := w.w.Write(foot[:]); err != nil {
		return err
	}
	return w.w.Flush()
}

// Reader streams events back from a trace file (version 1 or 2).
type Reader struct {
	r       *bufio.Reader
	version byte
	sum     uint32 // running CRC32 of the record payload (v2)
	seq     int64
}

// NewReader validates the header and returns a reader.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	head := make([]byte, len(traceMagic)+1)
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("%w: short header", ErrBadTrace)
	}
	if string(head[:len(traceMagic)]) != traceMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadTrace)
	}
	v := head[len(traceMagic)]
	if v != versionV1 && v != versionV2 {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBadTrace, v)
	}
	return &Reader{r: br, version: v}, nil
}

// readRecordByte reads one payload byte, folding it into the running CRC.
func (r *Reader) readRecordByte() (byte, error) {
	b, err := r.r.ReadByte()
	if err != nil {
		return 0, err
	}
	r.sum = crc32.Update(r.sum, crc32.IEEETable, []byte{b})
	return b, nil
}

// readUvarint mirrors binary.ReadUvarint over readRecordByte so every
// payload byte is checksummed as it streams past.
func (r *Reader) readUvarint() (uint64, error) {
	var x uint64
	var s uint
	for i := 0; i < binary.MaxVarintLen64; i++ {
		b, err := r.readRecordByte()
		if err != nil {
			return 0, err
		}
		if b < 0x80 {
			if i == binary.MaxVarintLen64-1 && b > 1 {
				return 0, fmt.Errorf("%w: uvarint overflow", ErrBadTrace)
			}
			return x | uint64(b)<<s, nil
		}
		x |= uint64(b&0x7f) << s
		s += 7
	}
	return 0, fmt.Errorf("%w: uvarint overflow", ErrBadTrace)
}

// checkFooter validates a v2 trailer against what was actually read.
func (r *Reader) checkFooter() error {
	var foot [footerLen]byte
	if _, err := io.ReadFull(r.r, foot[:]); err != nil {
		return fmt.Errorf("%w: truncated footer", ErrBadTrace)
	}
	if count := binary.LittleEndian.Uint64(foot[:8]); int64(count) != r.seq {
		return fmt.Errorf("%w: footer records %d events, read %d", ErrBadTrace, count, r.seq)
	}
	if sum := binary.LittleEndian.Uint32(foot[8:]); sum != r.sum {
		return fmt.Errorf("%w: payload CRC mismatch (footer %08x, computed %08x)",
			ErrBadTrace, sum, r.sum)
	}
	return nil
}

// Next returns the next event, or io.EOF after a valid terminator.  For
// version-2 files the terminator is valid only if the footer's event
// count and payload CRC both match what was read.
func (r *Reader) Next() (vm.Event, error) {
	ctl, err := r.r.ReadByte()
	if err != nil {
		return vm.Event{}, fmt.Errorf("%w: truncated (missing terminator)", ErrBadTrace)
	}
	if ctl == endMarker {
		if r.version >= versionV2 {
			if err := r.checkFooter(); err != nil {
				return vm.Event{}, err
			}
		}
		return vm.Event{}, io.EOF
	}
	if ctl > 3 {
		return vm.Event{}, fmt.Errorf("%w: bad control byte 0x%02x", ErrBadTrace, ctl)
	}
	r.sum = crc32.Update(r.sum, crc32.IEEETable, []byte{ctl})
	idx, err := r.readUvarint()
	if err != nil {
		if errors.Is(err, ErrBadTrace) {
			return vm.Event{}, err
		}
		return vm.Event{}, fmt.Errorf("%w: truncated index", ErrBadTrace)
	}
	ev := vm.Event{Seq: r.seq, Idx: int32(idx), Taken: ctl&2 != 0}
	if ctl&1 != 0 {
		addr, err := r.readUvarint()
		if err != nil {
			if errors.Is(err, ErrBadTrace) {
				return vm.Event{}, err
			}
			return vm.Event{}, fmt.Errorf("%w: truncated address", ErrBadTrace)
		}
		ev.Addr = int64(addr)
	}
	r.seq++
	return ev, nil
}

// Identity vets the framing of a whole trace file held in memory and
// returns what identifies it without decoding its records.  For version
// 2 that is the footer's event count and payload CRC32, once the CRC
// has been checked against the payload; a version-1 file, which has no
// footer, is identified by a zero count and the CRC32 of the whole file.
func Identity(data []byte) (events uint64, sum uint32, err error) {
	head := len(traceMagic) + 1
	if len(data) < head+1 || string(data[:len(traceMagic)]) != traceMagic {
		return 0, 0, fmt.Errorf("%w: not a trace file", ErrBadTrace)
	}
	switch data[len(traceMagic)] {
	case versionV1:
		if data[len(data)-1] != endMarker {
			return 0, 0, fmt.Errorf("%w: missing terminator", ErrBadTrace)
		}
		return 0, crc32.ChecksumIEEE(data), nil
	case versionV2:
		end := len(data) - footerLen - 1
		if end < head || data[end] != endMarker {
			return 0, 0, fmt.Errorf("%w: missing v2 footer", ErrBadTrace)
		}
		foot := data[end+1:]
		events, sum = binary.LittleEndian.Uint64(foot[:8]), binary.LittleEndian.Uint32(foot[8:])
		if got := crc32.ChecksumIEEE(data[head:end]); got != sum {
			return 0, 0, fmt.Errorf("%w: payload CRC mismatch (footer %08x, computed %08x)", ErrBadTrace, sum, got)
		}
		return events, sum, nil
	default:
		return 0, 0, fmt.Errorf("%w: unsupported version %d", ErrBadTrace, data[len(traceMagic)])
	}
}

// Visit reads a whole trace, invoking f per event.  The returned count is
// the number of events salvaged: on a corruption or truncation error it
// reports how many events were delivered to f before the failure, so a
// damaged trace degrades into a usable prefix instead of vanishing.
func Visit(r io.Reader, f func(vm.Event)) (int64, error) {
	tr, err := NewReader(r)
	if err != nil {
		return 0, err
	}
	var n int64
	for {
		ev, err := tr.Next()
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		f(ev)
		n++
	}
}
