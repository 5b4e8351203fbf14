package limits

import (
	"context"
	"fmt"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"ilplimit/internal/telemetry"
	"ilplimit/internal/vm"
)

// The analyzers of a group are mutually independent: each schedules the
// same dynamic trace under its own model with no shared mutable state.
// Stepping all of them on the producer's goroutine therefore serializes
// work that is embarrassingly parallel — with 7 models × 2 unroll configs
// the analysis pass costs 14× a single model's wall clock.  ReplayWith
// instead runs the trace producer once, batches events into fixed-size
// chunks, and publishes every chunk through a bounded
// single-producer/multi-consumer broadcast ring; each analyzer drains the
// ring on its own goroutine at its own pace.  Results are bit-identical
// to the inline path (SerialReplay) because each analyzer still observes
// the complete trace in order, through the same StepChunk.

const (
	// ChunkEvents is the number of trace events batched per ring slot.
	// Chunking amortizes ring synchronization (a handful of mutex
	// operations per chunk) over thousands of Step calls; 4096 events is
	// 128 KiB per slot, comfortably inside L2.
	ChunkEvents = 4096

	// RingSlots bounds the ring: the producer runs at most RingSlots
	// chunks ahead of the slowest analyzer, capping buffered trace memory
	// at RingSlots × ChunkEvents events (≈1 MiB).
	RingSlots = 8
)

// eventRing is a bounded single-producer/multi-consumer broadcast ring of
// pre-decoded columnar event chunks.  Every consumer observes every
// chunk, in order.  Slot chunks are recycled: the producer reuses a slot
// only after all consumers have drained the chunk that last occupied it,
// so a full replay holds RingSlots chunks total (drawn from chunkPool
// and returned at the end).
type eventRing struct {
	mu    sync.Mutex
	avail *sync.Cond // producer waits here for a free slot
	ready *sync.Cond // consumers wait here for the next chunk (or close)

	slots   [RingSlots]*Chunk
	head    int64   // chunks published so far
	tails   []int64 // per-consumer chunks fully consumed
	cut     []bool  // per-consumer: detached (panicked or watchdog-killed)
	closed  bool
	aborted bool
	met     *ringMetrics // nil unless the replay is observed
}

// ringMetrics holds the ring's telemetry handles, resolved once per
// replay so the ring operations pay atomic adds, not map lookups.  All
// updates happen at chunk granularity (every ChunkEvents events) under
// the mutex the ring already holds, so observation adds no per-event
// work and no new synchronization.
type ringMetrics struct {
	chunks     *telemetry.Counter   // "ring.chunks": chunks published
	events     *telemetry.Counter   // "ring.events": events published
	prodStalls *telemetry.Counter   // "ring.producer_stalls": reserves that blocked
	consStalls *telemetry.Counter   // "ring.consumer_stalls": nexts that blocked, all consumers
	detaches   *telemetry.Counter   // "ring.detaches": consumers removed after a panic or stall
	wdDetaches *telemetry.Counter   // "ring.watchdog_detaches": detaches forced by the stall watchdog
	occupancy  *telemetry.Gauge     // "ring.occupancy_hwm": high-water mark of buffered chunks
	latency    *telemetry.Histogram // "ring.chunk_latency_ns": publish→fully-drained per chunk
	perCons    []*telemetry.Counter // "ring.consumerNN.stalls": per-analyzer stall counts
	pubNs      [RingSlots]int64     // publish timestamp of the chunk occupying each slot
}

func newRingMetrics(m *telemetry.Registry, consumers int) *ringMetrics {
	if m == nil {
		return nil
	}
	rm := &ringMetrics{
		chunks:     m.Counter("ring.chunks"),
		events:     m.Counter("ring.events"),
		prodStalls: m.Counter("ring.producer_stalls"),
		consStalls: m.Counter("ring.consumer_stalls"),
		detaches:   m.Counter("ring.detaches"),
		wdDetaches: m.Counter("ring.watchdog_detaches"),
		occupancy:  m.Gauge("ring.occupancy_hwm"),
		latency:    m.Histogram("ring.chunk_latency_ns", telemetry.LatencyBuckets),
	}
	for i := 0; i < consumers; i++ {
		rm.perCons = append(rm.perCons, m.Counter(fmt.Sprintf("ring.consumer%02d.stalls", i)))
	}
	return rm
}

func newEventRing(consumers int, met *ringMetrics) *eventRing {
	r := &eventRing{tails: make([]int64, consumers), cut: make([]bool, consumers), met: met}
	r.avail = sync.NewCond(&r.mu)
	r.ready = sync.NewCond(&r.mu)
	for i := range r.slots {
		r.slots[i] = getChunk()
	}
	return r
}

// recycle returns the ring's slot chunks to chunkPool once the replay
// is over.  Chunks handed off to abandoned (watchdog-detached)
// consumers were already replaced at detach and stay with their zombie
// goroutine, so nothing recycled here can still be read.
func (r *eventRing) recycle() {
	r.mu.Lock()
	for i := range r.slots {
		if r.slots[i] != nil {
			putChunk(r.slots[i])
			r.slots[i] = nil
		}
	}
	r.mu.Unlock()
}

func (r *eventRing) minTail() int64 {
	min := r.tails[0]
	for _, t := range r.tails[1:] {
		if t < min {
			min = t
		}
	}
	return min
}

// reserve returns an empty chunk for the producer to fill, waiting until
// every consumer has drained the chunk that previously occupied its
// slot.  It returns nil once the ring is aborted, so a producer blocked
// on flow control cannot outlive a canceled replay.
func (r *eventRing) reserve() *Chunk {
	r.mu.Lock()
	if r.met != nil && r.minTail()+RingSlots <= r.head && !r.aborted {
		r.met.prodStalls.Inc()
	}
	for r.minTail()+RingSlots <= r.head && !r.aborted {
		r.avail.Wait()
	}
	if r.aborted {
		r.mu.Unlock()
		return nil
	}
	buf := r.slots[r.head%RingSlots]
	r.mu.Unlock()
	buf.Reset()
	return buf
}

// publish makes the chunk built in a reserve()d slot visible to every
// consumer.
func (r *eventRing) publish(buf *Chunk) {
	r.mu.Lock()
	if !r.aborted {
		r.slots[r.head%RingSlots] = buf
		r.head++
		if r.met != nil {
			r.met.chunks.Inc()
			r.met.events.Add(int64(buf.Len()))
			r.met.occupancy.SetMax(r.head - r.minTail())
			r.met.pubNs[(r.head-1)%RingSlots] = time.Now().UnixNano()
		}
		r.ready.Broadcast()
	}
	r.mu.Unlock()
}

// close marks the end of the stream; consumers drain what was published
// and then stop.
func (r *eventRing) close() {
	r.mu.Lock()
	r.closed = true
	r.ready.Broadcast()
	r.mu.Unlock()
}

// abort marks the stream aborted: the producer stops publishing and every
// consumer stops at its next chunk boundary, whatever is still buffered.
// Used to tear the flow down on context cancellation, where neither side
// should wait for the other.
func (r *eventRing) abort() {
	r.mu.Lock()
	r.aborted = true
	r.avail.Broadcast()
	r.ready.Broadcast()
	r.mu.Unlock()
}

// next returns consumer id's next chunk, or nil at end of stream (or
// once the consumer has been detached).  The consumer must call advance
// after processing the chunk.
func (r *eventRing) next(id int) *Chunk {
	r.mu.Lock()
	if r.met != nil && r.tails[id] == r.head && !r.closed && !r.aborted && !r.cut[id] {
		r.met.consStalls.Inc()
		r.met.perCons[id].Inc()
	}
	for r.tails[id] == r.head && !r.closed && !r.aborted && !r.cut[id] {
		r.ready.Wait()
	}
	if r.tails[id] == r.head || r.aborted || r.cut[id] {
		r.mu.Unlock()
		return nil
	}
	buf := r.slots[r.tails[id]%RingSlots]
	r.mu.Unlock()
	return buf
}

// advance releases consumer id's current chunk, potentially freeing its
// slot for the producer.  A detached consumer's advance is a no-op: its
// tail is already parked past every chunk.
func (r *eventRing) advance(id int) {
	r.mu.Lock()
	if r.cut[id] {
		r.mu.Unlock()
		return
	}
	var oldMin int64
	if r.met != nil {
		oldMin = r.minTail()
	}
	r.tails[id]++
	if r.met != nil {
		// The chunks this advance fully drained (minTail moved past
		// them) complete their broadcast now; their publish stamps are
		// still valid because the producer cannot reuse a slot before
		// it is freed here.
		if newMin := r.minTail(); newMin > oldMin {
			now := time.Now().UnixNano()
			for c := oldMin; c < newMin && c < r.head; c++ {
				r.met.latency.Observe(now - r.met.pubNs[c%RingSlots])
			}
		}
	}
	r.avail.Signal()
	r.mu.Unlock()
}

// detach removes consumer id from the flow-control accounting so a dead
// consumer (its goroutine panicked, or the stall watchdog gave up on it)
// can never block the producer.  Idempotent: only the first detach of a
// consumer counts.
func (r *eventRing) detach(id int) {
	r.mu.Lock()
	r.detachLocked(id, false)
	r.mu.Unlock()
}

// detachLocked is detach with r.mu held.  byWatchdog additionally counts
// the detach against the watchdog metric and covers the one hazard a
// watchdog kill has that a panic does not: the stuck goroutine may wake
// later and keep reading its current chunk, so that chunk's slot gets a
// fresh buffer — the producer recycles the new one while the zombie
// consumer keeps the old backing array to itself.
func (r *eventRing) detachLocked(id int, byWatchdog bool) {
	if r.cut[id] {
		return
	}
	r.cut[id] = true
	if byWatchdog && r.tails[id] < r.head {
		r.slots[r.tails[id]%RingSlots] = getChunk()
	}
	r.tails[id] = int64(1) << 62
	if r.met != nil {
		r.met.detaches.Inc()
		if byWatchdog {
			r.met.wdDetaches.Inc()
		}
	}
	r.avail.Signal()
	r.ready.Broadcast()
}

// RunFunc drives a trace producer under a context; (*vm.VM).RunContext
// satisfies it directly.
type RunFunc func(ctx context.Context, visit func(vm.Event)) error

// ReplayHooks intercept a replay at its two seams — the producer's
// chunk hand-off and each consumer's chunk step — for deterministic
// fault injection (internal/faultinject).  Both hooks fire once per
// chunk on the ring and on the inline path alike, and the consumers
// keep stepping through StepChunk, so a faulted replay runs the same
// steppers as a clean one.  Production replays run without hooks.
type ReplayHooks struct {
	// OnPublish runs in the producer goroutine right before chunk
	// (zero-based) reaches the consumers; it may mutate the columnar
	// chunk's events in place through Chunk.At/Chunk.Set
	// (AnnotatedEvent.Event recovers the raw trace facts).
	OnPublish func(chunk int64, c *Chunk)
	// BeforeChunk runs in consumer id's goroutine before it steps c; it
	// may sleep or panic, and returns how many leading events of c that
	// consumer steps — c.Len() for all of them, fewer to desynchronize
	// one analyzer from the trace (the fault behind a seeded
	// model-ordering violation).
	BeforeChunk func(id int, c *Chunk) int
}

// ReplayOptions bundles the optional knobs of a replay; the zero value
// is a plain replay under ctx.
type ReplayOptions struct {
	// Metrics, when non-nil, records the decode counters under
	// "decode." and, on the ring, the ring telemetry under "ring." —
	// chunks/events published, producer and per-consumer stall counts,
	// the occupancy high-water mark, and a publish→fully-drained latency
	// histogram per chunk (the catalogue is in DESIGN.md §9).  All
	// recording happens at chunk boundaries under the ring's existing
	// mutex, so the per-event path is unchanged.
	Metrics *telemetry.Registry
	// Hooks installs fault-injection hooks; see ReplayHooks.
	Hooks *ReplayHooks
	// Watchdog, when positive, arms the per-consumer stall watchdog: a
	// consumer that completes no chunk while one is available for this
	// long is detached exactly like a panicked worker — the producer and
	// the surviving analyzers keep going — and the replay returns a
	// *StallError naming the detached consumers.  The stuck goroutine is
	// abandoned; it exits at its next ring interaction.  Only the ring
	// has a watchdog (a single analyzer steps inline in the producer,
	// where there is no independent progress to watch).
	Watchdog time.Duration
	// Sink, when non-nil, additionally streams every published chunk to
	// the trace store (see ChunkSink): on the ring it is one more
	// consumer, observing the same chunks in the same order as the
	// analyzers; its first error detaches it without failing the
	// replay, and on clean completion it receives the nil end-of-stream
	// terminator.  A chunk mutated by Hooks.OnPublish reaches the sink
	// mutated, so the harness never populates the store under fault
	// hooks.
	Sink ChunkSink
}

// StallError reports consumers detached by the replay watchdog.  The
// surviving analyzers hold complete results, but the replay as a whole
// failed: the stalled analyzers' schedules are partial.
type StallError struct {
	// Consumers are the detached consumer ids, ascending.
	Consumers []int
	// Deadline is the watchdog deadline that expired.
	Deadline time.Duration
}

// Error names the stalled consumers and the deadline they missed.
func (e *StallError) Error() string {
	return fmt.Sprintf("limits: watchdog detached stalled consumer(s) %v: no chunk progress within %v",
		e.Consumers, e.Deadline)
}

// PanicError carries a panic raised on an analyzer worker goroutine
// together with the stack where it fired, so a recover() at the suite
// boundary can report the faulting analyzer rather than the rethrow site.
type PanicError struct {
	Value interface{}
	Stack []byte
}

// Error renders the recovered panic value.
func (e *PanicError) Error() string { return fmt.Sprintf("analyzer panic: %v", e.Value) }

// ReplayWith runs the trace source once and steps every analyzer over
// it — the one live replay.  With two or more analyzers, each consumes
// on its own goroutine through the bounded broadcast ring; with one (or
// none) the producer steps it inline (see SerialReplay).  The producer
// is handed ctx (a context-aware producer such as vm.RunContext aborts
// itself with vm.ErrCanceled), the ring checks ctx at every chunk
// boundary, and a cancellation wakes both a producer blocked on flow
// control and consumers blocked on an empty ring; a canceled replay
// returns an error wrapping vm.ErrCanceled even when the producer
// ignores ctx.  ReplayWith returns run's error only after every worker
// has stopped; on error the analyzers' states are partial.  An
// analyzer panic on the ring detaches that consumer, lets the others
// drain, and is rethrown as a *PanicError.
func ReplayWith(ctx context.Context, o ReplayOptions, run RunFunc, analyzers ...*Analyzer) error {
	if len(analyzers) < 2 {
		// A lone analyzer gains nothing from the ring.
		return replayInline(ctx, o, run, analyzers)
	}

	an := NewAnnotator(analyzers...)
	defer an.flush(o.Metrics)
	// The trace-store sink is one more ring consumer: it sees every
	// chunk in order under the same flow control, so spilling the trace
	// to disk overlaps the analyzers' stepping instead of serializing
	// after it.
	nCons := len(analyzers)
	sinkID := -1
	if o.Sink != nil {
		sinkID = nCons
		nCons++
	}
	r := newEventRing(nCons, newRingMetrics(o.Metrics, nCons))
	defer r.recycle()
	// A canceled context must unblock a producer waiting for a free slot
	// and consumers waiting for the next chunk; condition variables cannot
	// select on ctx.Done(), so a watcher trips the ring's abort flag.
	if done := ctx.Done(); done != nil {
		stop := make(chan struct{})
		defer close(stop)
		go func() {
			select {
			case <-done:
				r.abort()
			case <-stop:
			}
		}()
	}

	var (
		panicMu     sync.Mutex
		workerPanic *PanicError
	)
	done := make([]chan struct{}, len(analyzers))
	killed := make([]chan struct{}, len(analyzers))
	for i := range done {
		done[i] = make(chan struct{})
	}
	for i, a := range analyzers {
		go func(id int, a *Analyzer) {
			defer close(done[id])
			defer func() {
				// A panicking Step must not strand the producer waiting
				// for this consumer's slot; capture the first panic (with
				// its stack) and rethrow it from ReplayWith, like the
				// inline path would.
				if p := recover(); p != nil {
					panicMu.Lock()
					if workerPanic == nil {
						workerPanic = &PanicError{Value: p, Stack: debug.Stack()}
					}
					panicMu.Unlock()
					r.detach(id)
				}
			}()
			for {
				chunk := r.next(id)
				if chunk == nil {
					return
				}
				o.Hooks.step(id, a, chunk)
				r.advance(id)
			}
		}(i, a)
	}

	// The sink consumer: drains the same broadcast, detaches itself on
	// its first error (or a panic) so a broken store can slow nothing
	// down, and reports whether it survived to the end of the stream.
	var sinkDone chan struct{}
	sinkOK := false
	if sinkID >= 0 {
		sinkDone = make(chan struct{})
		go func() {
			defer close(sinkDone)
			defer func() {
				if p := recover(); p != nil {
					r.detach(sinkID)
				}
			}()
			for {
				chunk := r.next(sinkID)
				if chunk == nil {
					r.mu.Lock()
					sinkOK = !r.cut[sinkID] && !r.aborted
					r.mu.Unlock()
					return
				}
				if o.Sink(chunk) != nil {
					r.detach(sinkID)
					return
				}
				r.advance(sinkID)
			}
		}()
	}

	// The stall watchdog samples per-consumer chunk progress: a consumer
	// with a chunk available that completes none of it within the
	// deadline is detached like a panicked worker, so one wedged analyzer
	// cannot stall the producer and the surviving consumers forever.
	var stalls struct {
		sync.Mutex
		ids []int
	}
	if o.Watchdog > 0 {
		for i := range killed {
			killed[i] = make(chan struct{})
		}
		stopWd := make(chan struct{})
		defer close(stopWd)
		go func() {
			tick := o.Watchdog / 4
			if tick < time.Millisecond {
				tick = time.Millisecond
			}
			ticker := time.NewTicker(tick)
			defer ticker.Stop()
			lastTail := make([]int64, len(analyzers))
			lastMove := make([]time.Time, len(analyzers))
			start := time.Now()
			for i := range lastMove {
				lastMove[i] = start
			}
			for {
				select {
				case <-stopWd:
					return
				case <-ticker.C:
				}
				var fired []int
				r.mu.Lock()
				now := time.Now()
				for id := range r.tails {
					if id == sinkID {
						// The sink is not watched: a slow store write is
						// I/O pressure, not a wedged analyzer, and killing
						// it would only lose the populate.
						continue
					}
					switch {
					case r.cut[id]:
						// Already detached (panic or earlier firing).
					case r.tails[id] >= r.head:
						// No chunk pending: idle at the ring, not stalled.
						lastTail[id], lastMove[id] = r.tails[id], now
					case r.tails[id] != lastTail[id]:
						lastTail[id], lastMove[id] = r.tails[id], now
					case now.Sub(lastMove[id]) >= o.Watchdog:
						r.detachLocked(id, true)
						fired = append(fired, id)
					}
				}
				r.mu.Unlock()
				for _, id := range fired {
					stalls.Lock()
					stalls.ids = append(stalls.ids, id)
					stalls.Unlock()
					close(killed[id])
				}
			}
		}()
	}

	var err error
	func() {
		// close() runs even if the producer panics, so workers always
		// terminate instead of waiting on the ring forever.
		defer r.close()
		var chunk int64
		dropping := false
		buf := r.reserve()
		dropping = buf == nil
		err = run(ctx, func(ev vm.Event) {
			if dropping {
				// The replay was aborted; a producer that does not watch
				// ctx itself keeps streaming, so drop its events on the
				// floor until it returns.
				return
			}
			buf.Append(an.Annotate(ev))
			if buf.Len() == ChunkEvents {
				o.Hooks.publish(chunk, buf)
				r.publish(buf)
				chunk++
				// The per-chunk cancellation point: stop publishing as
				// soon as the context dies, even mid-trace.
				if ctx.Err() != nil {
					dropping = true
					return
				}
				buf = r.reserve()
				dropping = buf == nil
			}
		})
		if err == nil && !dropping && buf.Len() > 0 {
			o.Hooks.publish(chunk, buf)
			r.publish(buf)
		}
	}()
	// Wait for every worker — except those the watchdog gave up on, whose
	// goroutines are abandoned (they exit at their next ring interaction;
	// their slot buffers were handed off at detach, so the producer never
	// races them).
	for i := range analyzers {
		select {
		case <-done[i]:
		case <-killed[i]: // nil (never ready) unless the watchdog is armed
		}
	}
	if sinkDone != nil {
		<-sinkDone
	}
	panicMu.Lock()
	rethrow := workerPanic
	panicMu.Unlock()
	if rethrow != nil {
		panic(rethrow)
	}
	err = canceledErr(ctx, err)
	stalls.Lock()
	stalled := append([]int(nil), stalls.ids...)
	stalls.Unlock()
	if err == nil && len(stalled) > 0 {
		sort.Ints(stalled)
		return &StallError{Consumers: stalled, Deadline: o.Watchdog}
	}
	if err == nil && len(stalled) == 0 && sinkOK {
		// Clean end of stream: hand the sink its nil terminator so the
		// store may commit the trace as complete.
		_ = o.Sink(nil)
	}
	return err
}

// SerialReplay steps every analyzer on the caller's goroutine: the
// inline chunk loop ReplayWith runs for a lone analyzer, here applied
// to the whole set.  Events are annotated once into a columnar chunk
// and each full chunk is stepped through every analyzer's StepChunk, so
// it shares the decode work and the generated hot loops with the ring;
// only the goroutine fan-out differs.  The trailing partial chunk is
// stepped when the producer returns, successful or not, and a canceled
// run returns an error wrapping vm.ErrCanceled exactly like ReplayWith.
// It is the single-goroutine yardstick the ring is measured against.
func SerialReplay(ctx context.Context, run RunFunc, analyzers ...*Analyzer) error {
	return replayInline(ctx, ReplayOptions{}, run, analyzers)
}

// replayInline is the ring-free replay behind SerialReplay and
// single-analyzer ReplayWith calls: the producer annotates into one
// pooled chunk and, at every chunk boundary, steps each analyzer over
// it and hands it to the sink, all on the caller's goroutine.  The
// watchdog does not apply (there is no independent progress to watch).
func replayInline(ctx context.Context, o ReplayOptions, run RunFunc, analyzers []*Analyzer) error {
	if len(analyzers) == 0 {
		return canceledErr(ctx, run(ctx, func(vm.Event) {}))
	}
	an := NewAnnotator(analyzers...)
	defer an.flush(o.Metrics)
	c := getChunk()
	defer putChunk(c)
	var chunk int64
	sinkOK := o.Sink != nil
	emit := func() {
		o.Hooks.publish(chunk, c)
		chunk++
		for id, a := range analyzers {
			o.Hooks.step(id, a, c)
		}
		if sinkOK && o.Sink(c) != nil {
			sinkOK = false
		}
	}
	err := run(ctx, func(ev vm.Event) {
		c.Append(an.Annotate(ev))
		if c.Len() == ChunkEvents {
			emit()
			c.Reset()
		}
	})
	if c.Len() > 0 {
		emit()
	}
	// Map cancellation before the terminator: a producer that ignores
	// ctx returns nil from a canceled run, which is not a complete trace.
	err = canceledErr(ctx, err)
	if err == nil && sinkOK {
		_ = o.Sink(nil)
	}
	return err
}

// publish runs the OnPublish hook, if any, on chunk c.
func (h *ReplayHooks) publish(chunk int64, c *Chunk) {
	if h != nil && h.OnPublish != nil {
		h.OnPublish(chunk, c)
	}
}

// step steps consumer id's analyzer over chunk c: all of it, or only
// the leading events a BeforeChunk hook grants.
func (h *ReplayHooks) step(id int, a *Analyzer, c *Chunk) {
	if h != nil && h.BeforeChunk != nil {
		n := h.BeforeChunk(id, c)
		if n <= 0 {
			return
		}
		if n < c.Len() {
			c = ChunkView(c.base, c.addr[:n], c.idx[:n], c.flags[:n])
		}
	}
	a.StepChunk(c)
}

// canceledErr maps a nil producer error under a dead context to
// vm.ErrCanceled, so a producer that does not watch ctx itself still
// reports the replay as canceled rather than complete.
func canceledErr(ctx context.Context, err error) error {
	if err == nil && ctx.Err() != nil {
		return fmt.Errorf("%w: %v", vm.ErrCanceled, ctx.Err())
	}
	return err
}
