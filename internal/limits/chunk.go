package limits

import (
	"fmt"
	"sync"
)

// Columnar chunk layout.
//
// The replay ring used to broadcast []AnnotatedEvent — an array of
// 24-byte structs whose Seq field is redundant (events in a chunk are
// consecutive trace positions) and whose layout interleaves the three
// facts a stepper actually reads.  Chunk stores the same batch as a
// struct of arrays: one flat uint32 lane per fact (address, static
// index, flags) plus the base sequence number.  The fused kernel
// (fused.go) streams the lanes cache-line-sequentially —
// three densely packed arrays instead of one strided struct walk — and
// the per-event footprint drops from 24 to 12 bytes.

// Chunk is one columnar batch of annotated events, the unit the replay
// ring broadcasts and the fused kernel consumes.  Events occupy
// consecutive dynamic trace positions: event i carries sequence number
// Base()+i, so no per-event sequence lane is stored.  The zero Chunk is
// empty and ready for use; NewChunk pre-allocates lane capacity.
type Chunk struct {
	base int64
	// addr, idx and flags are the columnar lanes: effective word
	// address (or resolved jump target), static instruction index, and
	// the Flag* bits plus per-lane misprediction flags of event i.
	addr  []uint32
	idx   []uint32
	flags []uint32
}

// NewChunk creates an empty chunk with capacity for n events.
func NewChunk(n int) *Chunk {
	return &Chunk{
		addr:  make([]uint32, 0, n),
		idx:   make([]uint32, 0, n),
		flags: make([]uint32, 0, n),
	}
}

// Len reports how many events the chunk holds.
func (c *Chunk) Len() int { return len(c.idx) }

// Base returns the dynamic sequence number of the chunk's first event
// (meaningless for an empty chunk).
func (c *Chunk) Base() int64 { return c.base }

// Reset empties the chunk, keeping lane capacity for reuse.
func (c *Chunk) Reset() {
	c.addr = c.addr[:0]
	c.idx = c.idx[:0]
	c.flags = c.flags[:0]
}

// Append adds one annotated event.  The first append fixes the chunk's
// base sequence; every later event must carry the next consecutive
// sequence number, and any event whose address or index does not fit
// the 32-bit lanes is rejected — both panic, since either means the
// producer is broken, not the trace.
func (c *Chunk) Append(ae AnnotatedEvent) {
	if uint64(ae.Addr) > 0xFFFFFFFF || uint32(ae.Idx) > 0x7FFFFFFF {
		panic(fmt.Sprintf("limits: event (seq %d, addr %d, idx %d) does not fit columnar lanes",
			ae.Seq, ae.Addr, ae.Idx))
	}
	if len(c.idx) == 0 {
		c.base = ae.Seq
	} else if want := c.base + int64(len(c.idx)); ae.Seq != want {
		panic(fmt.Sprintf("limits: non-consecutive chunk append: seq %d, want %d", ae.Seq, want))
	}
	c.addr = append(c.addr, uint32(ae.Addr))
	c.idx = append(c.idx, uint32(ae.Idx))
	c.flags = append(c.flags, ae.Flags)
}

// At reconstructs event i, sequence number included.
func (c *Chunk) At(i int) AnnotatedEvent {
	return AnnotatedEvent{
		Seq:   c.base + int64(i),
		Addr:  int64(c.addr[i]),
		Idx:   int32(c.idx[i]),
		Flags: c.flags[i],
	}
}

// Set overwrites event i's address, index and flags in place (fault
// injection mutates published chunks through it).  The sequence number
// is positional: ae.Seq is ignored and At(i) keeps reporting Base()+i.
func (c *Chunk) Set(i int, ae AnnotatedEvent) {
	if uint64(ae.Addr) > 0xFFFFFFFF || uint32(ae.Idx) > 0x7FFFFFFF {
		panic(fmt.Sprintf("limits: event (addr %d, idx %d) does not fit columnar lanes", ae.Addr, ae.Idx))
	}
	c.addr[i] = uint32(ae.Addr)
	c.idx[i] = uint32(ae.Idx)
	c.flags[i] = ae.Flags
}

// Lanes exposes the chunk's columnar storage: the base sequence number
// and the three lanes, index-aligned.  Callers must treat the slices as
// read-only; the trace store serializes them verbatim.
func (c *Chunk) Lanes() (base int64, addr, idx, flags []uint32) {
	return c.base, c.addr, c.idx, c.flags
}

// ChunkView wraps pre-decoded columnar lanes as a chunk without
// copying — the zero-copy bridge from an on-disk v3 frame
// (trace.ChunkFile.Frame) to the fused kernel.  The lanes must
// be equal length and are aliased, not copied; the caller must keep
// them alive and unmodified while any analyzer steps the view.
func ChunkView(base int64, addr, idx, flags []uint32) *Chunk {
	if len(addr) != len(idx) || len(flags) != len(idx) {
		panic(fmt.Sprintf("limits: ragged chunk view (%d/%d/%d)", len(addr), len(idx), len(flags)))
	}
	return &Chunk{base: base, addr: addr, idx: idx, flags: flags}
}

// Events appends the chunk's reconstructed events to dst and returns
// the extended slice (testing and seam code; the hot paths never
// rebuild AnnotatedEvents from a chunk).
func (c *Chunk) Events(dst []AnnotatedEvent) []AnnotatedEvent {
	for i, n := 0, c.Len(); i < n; i++ {
		dst = append(dst, c.At(i))
	}
	return dst
}

// chunkPool recycles chunks across replays: every live replay returns
// its slot chunks at the end, so steady-state suites allocate no new
// chunk storage.  A slot whose chunk a watchdog-abandoned consumer
// still holds takes a fresh one from the pool.
var chunkPool = sync.Pool{
	New: func() interface{} { return NewChunk(ChunkEvents) },
}

// getChunk takes an empty ChunkEvents-capacity chunk from the pool.
func getChunk() *Chunk {
	c := chunkPool.Get().(*Chunk)
	c.Reset()
	return c
}

// putChunk returns a chunk to the pool.
func putChunk(c *Chunk) { chunkPool.Put(c) }
