package limits

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"
	"time"

	"ilplimit/internal/telemetry"
	"ilplimit/internal/vm"
)

// A replay's consumers are mutually independent: each schedules the
// same dynamic trace with no shared mutable state.  A consumer is a
// fused set (fused.go), which steps every fast-configured analyzer of
// one Static and unroll setting in one pass, or a lone analyzer on the
// generic StepAnnotated loop.  ReplayWith runs the trace producer once,
// batches events into fixed-size chunks, and publishes every chunk
// through a bounded single-producer/multi-consumer broadcast ring;
// ReplayChunks puts a stored trace's chunks in a ring that starts full
// and closed.  Either way each consumer drains the ring on its own
// goroutine at its own pace, through one loop (eventRing.run).
// Results are bit-identical to the ring-free SerialReplay because
// each consumer still observes the complete trace in order.

const (
	// ChunkEvents is the number of trace events batched per ring slot.
	// Chunking amortizes ring synchronization (a handful of mutex
	// operations per chunk) over thousands of Step calls; at 12 bytes
	// per event, 4096 events are 48 KiB per slot, comfortably inside L2.
	ChunkEvents = 4096

	// RingSlots bounds the ring: the producer runs at most RingSlots
	// chunks ahead of the slowest consumer, capping buffered trace memory
	// at RingSlots × ChunkEvents events (384 KiB).
	RingSlots = 8
)

// eventRing is a single-producer/multi-consumer broadcast ring of
// pre-decoded columnar event chunks.  Every consumer observes every
// chunk, in order; chunk n sits in slots[n%len(slots)].  A live ring
// has RingSlots recycled slots: the producer reuses a slot only after
// all consumers have drained the chunk that last occupied it, so a full
// replay holds RingSlots chunks total (drawn from chunkPool and
// returned at the end).  A stored ring holds every chunk of a stored
// trace and starts closed: it has no producer and recycles nothing.
type eventRing struct {
	mu    sync.Mutex
	avail *sync.Cond // producer waits here for a free slot
	ready *sync.Cond // consumers wait here for the next chunk (or close)

	slots   []*Chunk
	head    int64   // chunks published so far
	tails   []int64 // per-consumer chunks fully consumed
	cut     []bool  // per-consumer: detached (panicked, failed sink or watchdog-killed)
	closed  bool
	aborted bool
	// abandoned is set once the watchdog abandons a consumer, whose
	// goroutine may still read any chunk the ring has held: from then on
	// the ring reuses no chunk.
	abandoned bool
	met       *ringMetrics // nil unless the replay is observed
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
	perCons    []*telemetry.Counter // "ring.consumerNN.stalls": per-consumer stall counts
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

func newEventRing(slots []*Chunk, consumers int, met *ringMetrics) *eventRing {
	r := &eventRing{slots: slots, tails: make([]int64, consumers), cut: make([]bool, consumers), met: met}
	r.avail = sync.NewCond(&r.mu)
	r.ready = sync.NewCond(&r.mu)
	return r
}

// recycle returns a live ring's slot chunks to chunkPool once the
// replay is over, unless the watchdog abandoned a consumer: its zombie
// goroutine may still read one of them, so none is recycled.
func (r *eventRing) recycle() {
	r.mu.Lock()
	if !r.abandoned {
		for _, c := range r.slots {
			putChunk(c)
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
	slot := &r.slots[r.head%RingSlots]
	if r.abandoned {
		// An abandoned consumer may still read the slot's chunk: it keeps
		// it, and the slot takes a fresh one.
		*slot = getChunk()
	}
	buf := *slot
	r.mu.Unlock()
	buf.Reset()
	return buf
}

// publish makes the chunk built in a reserve()d slot visible to every
// consumer.
func (r *eventRing) publish(buf *Chunk) {
	r.mu.Lock()
	if !r.aborted {
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
	buf := r.slots[r.tails[id]%int64(len(r.slots))]
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
// later and keep reading its current chunk, so the ring marks itself
// abandoned and reuses no chunk from then on.  Consumers behind it
// still read the chunk in turn.
func (r *eventRing) detachLocked(id int, byWatchdog bool) {
	if r.cut[id] {
		return
	}
	r.cut[id] = true
	r.abandoned = r.abandoned || byWatchdog
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

// ReplayHooks intercept a live replay (ReplayWith) at its two seams —
// the producer's chunk hand-off and each consumer's chunk step — for
// deterministic fault injection (internal/faultinject).  Both hooks
// fire once per chunk.  A replay with a BeforeChunk hook gives every
// analyzer a consumer of its own, so a hook's consumer id names an
// analyzer (its position in the replay's analyzer list), and each still
// steps through a fused set when it can, so a faulted replay runs the
// same kernel as a clean one.  Production replays run without hooks.
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
	// "decode." and the ring telemetry under "ring." —
	// chunks/events published, producer and per-consumer stall counts,
	// the occupancy high-water mark, and a publish→fully-drained latency
	// histogram per chunk (the catalogue is in DESIGN.md §9).  All
	// recording happens at chunk boundaries under the ring's existing
	// mutex, so the per-event path is unchanged.
	Metrics *telemetry.Registry
	// Hooks installs fault-injection hooks; see ReplayHooks.
	Hooks *ReplayHooks
	// Watchdog, when positive, arms the per-consumer stall watchdog: a
	// consumer that spends this long stepping one chunk is detached
	// exactly like a panicked worker — the producer and the surviving
	// consumers keep going — and the replay returns a *StallError naming
	// the detached consumers.  Time spent waiting at the ring for the
	// next chunk never counts.  The stuck goroutine is abandoned: the
	// ring reuses no chunk from then on, the goroutine exits at its next
	// ring interaction, and its analyzers' results are never written
	// back.  It watches every live replay, a lone analyzer's included;
	// a stored replay (ReplayChunks) takes no options and has none.
	Watchdog time.Duration
	// Sink, when non-nil, additionally streams every published chunk to
	// the trace store (see ChunkSink): it is the ring's last consumer,
	// observing the same chunks in the same order as the others through
	// the same loop, unwatched by the watchdog; its first error or panic
	// detaches it without failing the replay, and on clean completion it
	// receives the nil end-of-stream terminator.  A chunk mutated by
	// Hooks.OnPublish reaches the sink mutated, so the harness never
	// populates the store under fault hooks.
	Sink ChunkSink
}

// StallError reports consumers detached by the replay watchdog.  The
// surviving consumers' analyzers hold complete results, a survivor that
// ran behind a stalled consumer included, but the replay as a whole
// failed: the stalled ones' schedules are partial.
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

// PanicError carries a panic raised on a consumer's worker goroutine
// together with the stack where it fired, so a recover() at the suite
// boundary can report the faulting analyzer rather than the rethrow site.
type PanicError struct {
	Value interface{}
	Stack []byte
}

// Error renders the recovered panic value.
func (e *PanicError) Error() string { return fmt.Sprintf("analyzer panic: %v", e.Value) }

// ReplayWith runs the trace source once and steps every analyzer over
// it — the one live replay.  The analyzers are split into consumers
// (see ReplayChunks), and each consumer drains the bounded broadcast
// ring on its own goroutine, a lone one included, while the producer
// annotates and publishes on the caller's goroutine.  With no analyzer
// it only runs the producer.  The producer is handed ctx (a
// context-aware producer such as vm.RunContext aborts itself with
// vm.ErrCanceled), and a cancellation aborts the ring, waking both a
// producer blocked on flow control and consumers blocked on an empty
// ring; a canceled replay returns an error wrapping vm.ErrCanceled even
// when the producer ignores ctx.  ReplayWith returns run's error only
// after every worker has stopped; on error the analyzers' states are
// partial.  A consumer panic detaches that consumer, lets the producer
// finish the trace and the others drain and write back, and is
// rethrown as a *PanicError.
func ReplayWith(ctx context.Context, o ReplayOptions, run RunFunc, analyzers ...*Analyzer) error {
	if len(analyzers) == 0 {
		return canceledErr(ctx, run(ctx, func(vm.Event) {}))
	}

	an := NewAnnotator(analyzers...)
	defer an.flush(o.Metrics)
	cons := splitConsumers(analyzers, o.Hooks.perAnalyzer())
	// The trace-store sink is the ring's last consumer: it sees every
	// chunk in order under the same flow control, so spilling the trace
	// to disk overlaps the analyzers' stepping instead of serializing
	// after it.
	n := len(cons)
	if o.Sink != nil {
		n++
	}
	slots := make([]*Chunk, RingSlots)
	for i := range slots {
		slots[i] = getChunk()
	}
	r := newEventRing(slots, n, newRingMetrics(o.Metrics, n))
	err := r.run(ctx, o, cons, func() error {
		// close() runs even if the producer panics, so workers always
		// terminate instead of waiting on the ring forever.
		defer r.close()
		var chunk int64
		buf := r.reserve()
		err := run(ctx, func(ev vm.Event) {
			if buf == nil {
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
				buf = r.reserve()
			}
		})
		if err == nil && buf != nil && buf.Len() > 0 {
			o.Hooks.publish(chunk, buf)
			r.publish(buf)
		}
		return err
	})
	// Not deferred: a panic skips it, since after a producer panic the
	// workers may still be reading the slots.
	r.recycle()
	return err
}

// run drains the ring through cons, plus o.Sink as the last consumer
// when the ring has one more, each on its own goroutine, while produce
// (nil for a stored ring) fills the ring on the caller's goroutine.  It
// is every ring replay's one consumer loop and its one cancellation,
// panic and watchdog path: a cancellation aborts the ring; a consumer
// panic detaches that consumer and is rethrown after the others write
// back; a failing sink is detached without failing the replay; and
// with o.Watchdog armed, a timer runs while each consumer steps a chunk
// and detaches it, abandoned, if the chunk outlasts the deadline.
func (r *eventRing) run(ctx context.Context, o ReplayOptions, cons []consumer, produce func() error) error {
	defer context.AfterFunc(ctx, r.abort)()
	killed := make([]chan struct{}, len(r.tails)) // closed when the watchdog detaches a consumer
	for i := range killed {
		killed[i] = make(chan struct{})
	}
	// stall detaches consumer id for the watchdog, once: its timer and
	// the consumer itself, when it finds the timer already fired, both
	// call it.
	stall := func(id int) {
		r.mu.Lock()
		if !r.cut[id] {
			r.detachLocked(id, true)
			close(killed[id])
		}
		r.mu.Unlock()
	}
	fan := startFanOut(len(r.tails), func(id int) {
		var wd *time.Timer // armed only while consumer id steps a chunk
		for c := r.next(id); c != nil; c = r.next(id) {
			if id == len(cons) {
				// The sink: a failed write detaches it, so a broken store
				// slows nothing down.  A slow write is I/O pressure, not a
				// wedged consumer, so no watchdog watches it.
				if !spill(o.Sink, c) {
					r.detach(id)
					return
				}
				r.advance(id)
				continue
			}
			if wd != nil {
				wd.Reset(o.Watchdog)
			} else if o.Watchdog > 0 {
				wd = time.AfterFunc(o.Watchdog, func() { stall(id) })
			}
			o.Hooks.step(id, cons[id], c)
			if wd != nil && !wd.Stop() {
				stall(id)
				return
			}
			r.advance(id)
		}
	}, r.detach)

	var err error
	if produce != nil {
		err = produce()
	}
	// Wait for every worker but those the watchdog abandoned: they exit
	// at their next ring interaction, the ring holds the chunk each one
	// still reads, and their results are never written back.
	for i, done := range fan.done {
		select {
		case <-done:
		case <-killed[i]:
		}
	}
	r.mu.Lock()
	sinkOK := o.Sink != nil && !r.cut[len(cons)]
	r.mu.Unlock()
	// Survivors of a consumer panic hold complete results too.
	var stalled []int
	for i, c := range cons {
		select {
		case <-killed[i]:
			stalled = append(stalled, i)
		default:
			c.finish()
		}
	}
	fan.rethrow()
	err = canceledErr(ctx, err)
	if err == nil && len(stalled) > 0 {
		return &StallError{Consumers: stalled, Deadline: o.Watchdog}
	}
	if err == nil && sinkOK {
		// Clean end of stream: hand the sink its nil terminator so the
		// store may commit the trace as complete.
		spill(o.Sink, nil)
	}
	return err
}

// SerialReplay steps every analyzer on the caller's goroutine, with no
// ring: events are annotated once into a columnar chunk, and each full
// chunk is stepped through every consumer — the same fused sets and
// generic loops the ring runs — so only the goroutine fan-out differs.
// The trailing partial chunk is stepped when the producer returns,
// successful or not, and a canceled run returns an error wrapping
// vm.ErrCanceled exactly like ReplayWith.  It takes no options: no
// hooks, sink, metrics or watchdog.  It is the single-goroutine
// yardstick the ring is measured against.
func SerialReplay(ctx context.Context, run RunFunc, analyzers ...*Analyzer) error {
	if len(analyzers) == 0 {
		return ReplayWith(ctx, ReplayOptions{}, run)
	}
	an := NewAnnotator(analyzers...)
	cons := splitConsumers(analyzers, false)
	c := getChunk()
	defer putChunk(c)
	step := func() {
		for _, cn := range cons {
			cn.step(c)
		}
		c.Reset()
	}
	err := run(ctx, func(ev vm.Event) {
		c.Append(an.Annotate(ev))
		if c.Len() == ChunkEvents {
			step()
		}
	})
	if c.Len() > 0 {
		step()
	}
	for _, cn := range cons {
		cn.finish()
	}
	return canceledErr(ctx, err)
}

// spill hands chunk c (nil for the end-of-stream terminator) to sink
// and reports whether the sink took it.  A sink that returns an error
// or panics is detached by the caller: a replay never fails because of
// its sink.
func spill(sink ChunkSink, c *Chunk) (ok bool) {
	defer func() { recover() }()
	return sink(c) == nil
}

// ReplayChunks steps the analyzers over a trace already annotated into
// chunks — the replay of a stored trace (internal/tracestore).  It
// re-applies the predictor lane assignment NewAnnotator would make for
// this analyzer set (see AssignReplayLanes), splits the analyzers into
// consumers exactly as ReplayWith does, and drains the chunks through
// the same ring and consumer loop, built already full and closed: there
// is no producer and no flow control, since every chunk already exists,
// and no chunk is recycled.  Every consumer runs on its own goroutine,
// a lone one included.  A consumer panic is rethrown as a *PanicError
// after the other consumers drain and write back, and cancellation
// returns an error wrapping vm.ErrCanceled, both exactly like
// ReplayWith.  A stored replay has no watchdog and records no ring
// telemetry.
func ReplayChunks(ctx context.Context, chunks []*Chunk, analyzers ...*Analyzer) error {
	assignLanes(analyzers)
	cons := splitConsumers(analyzers, false)
	r := newEventRing(chunks, len(cons), nil)
	r.head, r.closed = int64(len(chunks)), true
	return r.run(ctx, ReplayOptions{}, cons, nil)
}

// consumer is one independent stepping unit of a replay: a fused set,
// or a lone analyzer on the generic StepAnnotated loop (set == nil).
type consumer struct {
	set *fusedSet
	a   *Analyzer
}

// splitConsumers partitions a replay's analyzers, their predictor
// lanes already assigned, into consumers.  Fusable analyzers (see
// Analyzer.fusable) that share a Static, an unroll setting and a table
// size form one fused set; every other analyzer is a consumer of its
// own.  Consumers are ordered by their first analyzer.  perAnalyzer
// gives every analyzer its own consumer, fused when it can be.
func splitConsumers(analyzers []*Analyzer, perAnalyzer bool) []consumer {
	type setKey struct {
		st     *Static
		unroll bool
		pages  int
	}
	sets := make(map[setKey]*fusedSet)
	var cons []consumer
	for _, a := range analyzers {
		if !a.fusable() {
			cons = append(cons, consumer{a: a})
			continue
		}
		k := setKey{a.st, a.unrolling, len(a.memTime.pages)}
		s := sets[k]
		if s == nil || perAnalyzer {
			s = newFusedSet(a)
			sets[k] = s
			cons = append(cons, consumer{set: s})
		}
		s.add(a)
	}
	return cons
}

// step steps the consumer over chunk c.
func (cn consumer) step(c *Chunk) {
	if cn.set != nil {
		cn.set.step(c)
		return
	}
	cn.a.StepChunk(c)
}

// finish ends the consumer's replay: a fused set writes its results
// back to its members.
func (cn consumer) finish() {
	if cn.set != nil {
		cn.set.writeBack()
	}
}

// fanOut runs one goroutine per consumer and captures the first panic
// among them, with its stack, for the replay to rethrow.
type fanOut struct {
	done     []chan struct{} // closed as each worker returns
	mu       sync.Mutex
	panicked *PanicError
}

// startFanOut runs work(id) for ids 0..n-1, each on its own goroutine.
// After a worker panics, onPanic runs with its id.
func startFanOut(n int, work func(id int), onPanic func(id int)) *fanOut {
	f := &fanOut{done: make([]chan struct{}, n)}
	for id := range f.done {
		f.done[id] = make(chan struct{})
		go func() {
			defer close(f.done[id])
			defer func() {
				if p := recover(); p != nil {
					f.mu.Lock()
					if f.panicked == nil {
						f.panicked = &PanicError{Value: p, Stack: debug.Stack()}
					}
					f.mu.Unlock()
					onPanic(id)
				}
			}()
			work(id)
		}()
	}
	return f
}

// rethrow panics with the first captured worker panic, if any.  Call it
// only after every worker it may report has returned.
func (f *fanOut) rethrow() {
	f.mu.Lock()
	p := f.panicked
	f.mu.Unlock()
	if p != nil {
		panic(p)
	}
}

// publish runs the OnPublish hook, if any, on chunk c.
func (h *ReplayHooks) publish(chunk int64, c *Chunk) {
	if h != nil && h.OnPublish != nil {
		h.OnPublish(chunk, c)
	}
}

// perAnalyzer reports whether the hooks need one consumer per
// analyzer: a BeforeChunk hook addresses consumers by analyzer.
func (h *ReplayHooks) perAnalyzer() bool { return h != nil && h.BeforeChunk != nil }

// step steps consumer id over chunk c: all of it, or only the leading
// events a BeforeChunk hook grants.
func (h *ReplayHooks) step(id int, cn consumer, c *Chunk) {
	if h != nil && h.BeforeChunk != nil {
		n := h.BeforeChunk(id, c)
		if n <= 0 {
			return
		}
		if n < c.Len() {
			c = ChunkView(c.base, c.addr[:n], c.idx[:n], c.flags[:n])
		}
	}
	cn.step(c)
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
