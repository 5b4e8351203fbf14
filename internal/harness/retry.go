package harness

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"ilplimit/internal/limits"
	"ilplimit/internal/vm"
)

// Retryable reports whether a cell failure is transient — worth
// re-running — under the suite's retry policy.  Cancellation and
// step-limit overruns reproduce exactly; an invariant violation means
// the analysis computed wrong numbers, and a retry that happened to
// pass would hide a bug.  Everything else — panics, injected faults,
// watchdog stalls — is environmental and retries.  An error exposing a
// `Retryable() bool` method decides for itself: remote cell failures
// arrive pre-classified by the fabric worker that saw the original
// error, which used Retryable to classify it.
func Retryable(err error) bool {
	var rt interface{ Retryable() bool }
	if errors.As(err, &rt) {
		return rt.Retryable()
	}
	var inv *limits.InvariantError
	switch {
	case errors.As(err, &inv),
		errors.Is(err, vm.ErrCanceled),
		errors.Is(err, vm.ErrStepLimit):
		return false
	}
	return true
}

// Backoff is the capped, jittered exponential backoff every retry loop
// shares: the suite's cell retries, and the fabric worker's outage loop
// and heartbeats.  Each Next doubles the base delay up to the cap and
// returns a duration drawn uniformly from the upper half of that
// window, so concurrent benchmarks retrying together, or a fleet of
// workers hammered off a restarting coordinator, do not retry in
// lockstep.
type Backoff struct {
	base time.Duration
	max  time.Duration
	cur  time.Duration
}

// NewBackoff returns a backoff starting at base (50ms when base is not
// positive) and capped at max (raised to base when smaller).
func NewBackoff(base, max time.Duration) *Backoff {
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	if max < base {
		max = base
	}
	return &Backoff{base: base, max: max}
}

// Next returns the delay to sleep before the following attempt and
// advances the schedule.
func (b *Backoff) Next() time.Duration {
	switch {
	case b.cur == 0:
		b.cur = b.base
	case b.cur > b.max/2:
		b.cur = b.max
	default:
		b.cur *= 2
	}
	// Jitter within [cur/2, cur): enough spread to break lockstep,
	// never more than the schedule promises.
	half := b.cur / 2
	if half <= 0 {
		return b.cur
	}
	return half + time.Duration(rand.Int63n(int64(half)))
}

// Reset rewinds the schedule to the base delay after a success.
func (b *Backoff) Reset() { b.cur = 0 }

// runCellResilient wraps executeCell with the suite's bounded-retry
// policy: up to opt.Retries extra attempts for transient failures,
// waiting between them on a Backoff from opt.RetryBackoff capped at 32
// times that.  It returns the result of the last attempt and how many
// attempts were made.
func runCellResilient(c Cell, opt Options) (*BenchResult, int, error) {
	ctx := opt.ctx()
	retries := opt.Metrics.Counter("bench." + c.Bench.Name + ".retries")
	bo := NewBackoff(opt.RetryBackoff, 32*opt.RetryBackoff)
	for attempt := 1; ; attempt++ {
		res, err := executeCell(c, opt)
		if err == nil || attempt > opt.Retries || !Retryable(err) {
			return res, attempt, err
		}
		delay := bo.Next()
		retries.Add(1)
		if opt.Progress != nil {
			fmt.Fprintf(opt.Progress, "[%s] attempt %d failed (%v); retrying in %v\n",
				c.Bench.Name, attempt, err, delay)
		}
		select {
		case <-time.After(delay):
		case <-ctx.Done():
			return nil, attempt, fmt.Errorf("%s: %w: retry canceled (%v)",
				c.Bench.Name, vm.ErrCanceled, ctx.Err())
		}
	}
}
