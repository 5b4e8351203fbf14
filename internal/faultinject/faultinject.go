package faultinject

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"ilplimit/internal/limits"
)

// ErrInjectedTrap is the sentinel a TrapAtStep plan makes the VM return,
// standing in for a real trap (bad address, division by zero) at a
// reproducible point in the trace.
var ErrInjectedTrap = errors.New("faultinject: injected trap")

// Plan describes one deterministic fault schedule.  The zero value
// injects nothing; each fault arms independently when its trigger field
// is positive.  Sequence numbers refer to vm.Event.Seq, so a fault lands
// on the same dynamic instruction in every run of the same program.
type Plan struct {
	// TrapAtStep > 0 aborts the VM run with ErrInjectedTrap at the first
	// cancellation check at or after that step.
	TrapAtStep int64

	// PanicAtSeq > 0 makes consumer PanicConsumer panic before stepping
	// the chunk that holds the event with that sequence number,
	// simulating an analyzer bug on one worker goroutine.
	PanicConsumer int
	PanicAtSeq    int64

	// CorruptAtSeq > 0 mutates the event with that sequence number in the
	// producer's chunk before it is published (address bit flipped,
	// branch outcome inverted) — the fault a broken ring would introduce.
	CorruptAtSeq int64

	// StallAtSeq > 0 makes consumer StallConsumer sleep StallFor before
	// stepping the chunk that holds that event, long enough for the
	// producer to fill every ring slot and block on flow control.
	StallConsumer int
	StallAtSeq    int64
	StallFor      time.Duration

	// SlowEvery > 0 makes consumer SlowConsumer sleep SlowFor before
	// stepping each chunk, once for every sequence number in it that is
	// a multiple of SlowEvery — steady sub-deadline progress rather than
	// the one-shot stall above, so a watchdog deadline can be probed at
	// finer granularity than its timeout (a slow-but-moving consumer
	// must survive; a stalled one must not).
	SlowConsumer int
	SlowEvery    int64
	SlowFor      time.Duration

	// DropFromSeq > 0 makes consumer DropConsumer silently skip every
	// event from that sequence number on: it steps only the prefix of
	// the chunk holding it, and nothing after.  An analyzer fed a
	// truncated trace computes a bogus schedule while its siblings see
	// the whole trace — the cheapest deterministic way to seed a
	// model-ordering invariant violation for limits.CheckOrdering.
	DropConsumer int
	DropFromSeq  int64

	// Once arms each trigger for a single firing across the plan's
	// lifetime.  A plan is normally re-armed by every pipeline pass —
	// the same trap fires again on a harness retry, exhausting the
	// retry budget.  Chaos schedules set Once so an injected transient
	// fault behaves like one: the first attempt fails, the retry runs
	// clean, and the suite converges.
	Once bool

	trapOnce, panicOnce, stallOnce                         atomic.Bool
	trapped, panicked, corrupted, stalled, slowed, dropped atomic.Int64
}

// spent reports (and records) whether a Once plan already fired the
// trigger guarded by armed; non-Once plans always re-fire.
func (p *Plan) spent(armed *atomic.Bool) bool {
	if !p.Once {
		return false
	}
	return !armed.CompareAndSwap(false, true)
}

// StepHook returns a vm.VM StepHook implementing TrapAtStep, or nil when
// the plan injects no trap.
func (p *Plan) StepHook() func(steps int64) error {
	if p.TrapAtStep <= 0 {
		return nil
	}
	return func(steps int64) error {
		if steps < p.TrapAtStep || p.spent(&p.trapOnce) {
			return nil
		}
		p.trapped.Add(1)
		return ErrInjectedTrap
	}
}

// Hooks returns the replay hooks implementing the consumer and chunk
// faults, or nil when the plan touches neither.  Consumer faults fire
// per chunk: panic and stall on the chunk holding their sequence
// number, slow once per multiple of SlowEvery the chunk holds, and drop
// by granting the consumer only the chunk's prefix before DropFromSeq.
func (p *Plan) Hooks() *limits.ReplayHooks {
	h := &limits.ReplayHooks{}
	armed := false
	if p.CorruptAtSeq > 0 {
		armed = true
		h.OnPublish = func(_ int64, c *limits.Chunk) {
			// Chunks are columnar with implicit sequence numbers, so the
			// target event's lane position is base-relative.
			i := int(p.CorruptAtSeq - c.Base())
			if i < 0 || i >= c.Len() {
				return
			}
			// Flip the same trace facts a corrupted raw chunk would
			// have carried: the address bit, the branch outcome, and —
			// since chunks arrive pre-decoded — every lane's
			// misprediction bit, so speculative consumers observe the
			// inverted outcome exactly as if they had re-derived it.
			ev := c.At(i)
			ev.Addr ^= 1
			ev.Flags ^= limits.FlagTaken
			if ev.Flags&limits.FlagBranch != 0 {
				ev.Flags ^= limits.FlagMispredAll
			}
			c.Set(i, ev)
			p.corrupted.Add(1)
		}
	}
	if p.PanicAtSeq > 0 || p.StallAtSeq > 0 || p.SlowEvery > 0 || p.DropFromSeq > 0 {
		armed = true
		h.BeforeChunk = func(id int, c *limits.Chunk) int {
			lo, n := c.Base(), c.Len()
			hi := lo + int64(n)
			holds := func(seq int64) bool { return lo <= seq && seq < hi }
			if p.StallAtSeq > 0 && id == p.StallConsumer && holds(p.StallAtSeq) && !p.spent(&p.stallOnce) {
				p.stalled.Add(1)
				time.Sleep(p.StallFor)
			}
			// Slow is exempt from Once: it delays, never fails, so
			// re-firing across retries cannot burn the retry budget.
			if p.SlowEvery > 0 && id == p.SlowConsumer {
				for seq := (lo + p.SlowEvery - 1) / p.SlowEvery * p.SlowEvery; seq < hi; seq += p.SlowEvery {
					p.slowed.Add(1)
					time.Sleep(p.SlowFor)
				}
			}
			if p.PanicAtSeq > 0 && id == p.PanicConsumer && holds(p.PanicAtSeq) && !p.spent(&p.panicOnce) {
				p.panicked.Add(1)
				panic(fmt.Sprintf("faultinject: planned panic in consumer %d at seq %d", id, p.PanicAtSeq))
			}
			if p.DropFromSeq > 0 && id == p.DropConsumer && p.DropFromSeq < hi {
				keep := 0
				if p.DropFromSeq > lo {
					keep = int(p.DropFromSeq - lo)
				}
				p.dropped.Add(int64(n - keep))
				return keep
			}
			return n
		}
	}
	if !armed {
		return nil
	}
	return h
}

// Fired reports which faults actually triggered, for asserting that a
// test exercised the recovery path it meant to.
func (p *Plan) Fired() (trapped, panicked, corrupted, stalled int64) {
	return p.trapped.Load(), p.panicked.Load(), p.corrupted.Load(), p.stalled.Load()
}

// FiredSlow reports how many events the slow-consumer plan delayed.
func (p *Plan) FiredSlow() int64 { return p.slowed.Load() }

// FiredDropped reports how many events the drop plan skipped.
func (p *Plan) FiredDropped() int64 { return p.dropped.Load() }
