package harness

import (
	"bytes"
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ilplimit/internal/journal"
	"ilplimit/internal/limits"
)

// journalBytes reads the raw journal file of dir.
func journalBytes(t *testing.T, dir string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, journal.FileName))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestOrderedAppenderSuiteOrder settles cells out of order — including
// a failed cell with nothing to append — and checks the journal's bench
// records still land in suite order, with the failure skipped.
func TestOrderedAppenderSuiteOrder(t *testing.T) {
	dir := t.TempDir()
	benches := mustBench(t, "awk", "ccom", "eqntott")
	opt := Options{Benchmarks: benches}
	j, err := journal.Open(dir, opt.JournalMeta(""))
	if err != nil {
		t.Fatal(err)
	}
	a := newOrderedAppender(j, benches)

	// Last cell finishes first; nothing may be written until the cursor
	// reaches it.
	a.settle(2, &BenchResult{Name: "eqntott"})
	if data := journalBytes(t, dir); bytes.Contains(data, []byte(`"name":"eqntott"`)) {
		t.Fatal("out-of-order result appended before earlier cells settled")
	}
	a.settle(0, &BenchResult{Name: "awk"})
	a.settle(1, nil) // failed cell: advances the cursor, appends nothing
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	data := journalBytes(t, dir)
	iAwk := bytes.Index(data, []byte(`"name":"awk"`))
	iEqn := bytes.Index(data, []byte(`"name":"eqntott"`))
	if iAwk < 0 || iEqn < 0 || iAwk > iEqn {
		t.Errorf("journal records out of suite order (awk@%d, eqntott@%d):\n%s", iAwk, iEqn, data)
	}
	if bytes.Contains(data, []byte(`"name":"ccom"`)) {
		t.Errorf("failed cell was journaled:\n%s", data)
	}
	for i, want := range []error{nil, nil, nil} {
		if got := a.appendErr(i); !errors.Is(got, want) {
			t.Errorf("appendErr(%d) = %v", i, got)
		}
	}
}

// TestRunSuiteJournalOrderWithCellRunner runs a two-cell suite through
// a CellRunner that makes the first cell finish last, and checks the
// journal's record order still matches suite order — the invariant the
// distributed fabric's byte-identity rests on.
func TestRunSuiteJournalOrderWithCellRunner(t *testing.T) {
	dir := t.TempDir()
	opt := fastSuite()
	opt.Benchmarks = mustBench(t, "awk", "eqntott")
	opt.Jobs = 2
	j, err := journal.Open(dir, opt.JournalMeta(""))
	if err != nil {
		t.Fatal(err)
	}
	opt.Journal = j
	started := make(chan struct{})
	opt.CellRunner = func(ctx context.Context, c Cell, o Options) (*BenchResult, error) {
		if c.Index == 0 {
			// Hold cell 0 until cell 1 is underway, then let it lose.
			<-started
			time.Sleep(50 * time.Millisecond)
		} else {
			close(started)
		}
		return RunCell(c, o)
	}
	s, err := RunSuite(opt)
	if err != nil {
		t.Fatalf("RunSuite = %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if len(s.Benchmarks) != 2 || s.Benchmarks[0].Name != "awk" {
		t.Fatalf("suite order wrong: %+v", s.Benchmarks)
	}
	data := journalBytes(t, dir)
	iAwk := bytes.Index(data, []byte(`"name":"awk"`))
	iEqn := bytes.Index(data, []byte(`"name":"eqntott"`))
	if iAwk < 0 || iEqn < 0 || iAwk > iEqn {
		t.Errorf("journal records out of suite order (awk@%d, eqntott@%d)", iAwk, iEqn)
	}
}

// verdictErr mimics the fabric's pre-classified remote failures.
type verdictErr struct{ transient bool }

func (e verdictErr) Error() string   { return "remote cell failure" }
func (e verdictErr) Retryable() bool { return e.transient }

// TestRetryPolicyHonorsRetryableInterface checks an error exposing a
// Retryable method overrides the default transient/deterministic
// classification in both directions.
func TestRetryPolicyHonorsRetryableInterface(t *testing.T) {
	if Retryable(verdictErr{transient: true}) != true {
		t.Error("pre-classified transient error not retried")
	}
	if Retryable(verdictErr{transient: false}) != false {
		t.Error("pre-classified deterministic error retried")
	}

	run := func(transient bool) int64 {
		var calls atomic.Int64
		opt := fastSuite()
		opt.Benchmarks = mustBench(t, "awk")
		opt.Retries = 2
		opt.RetryBackoff = time.Millisecond
		opt.CellRunner = func(ctx context.Context, c Cell, o Options) (*BenchResult, error) {
			calls.Add(1)
			return nil, verdictErr{transient: transient}
		}
		if _, err := RunSuite(opt); err == nil {
			t.Fatal("always-failing cell runner produced a passing suite")
		}
		return calls.Load()
	}
	if got := run(false); got != 1 {
		t.Errorf("deterministic remote failure ran %d times, want 1", got)
	}
	if got := run(true); got != 3 {
		t.Errorf("transient remote failure ran %d times, want 3", got)
	}
}

// TestRetryBackoffCapped runs one always-transiently-failing cell for
// 64 attempts and checks every logged retry delay against the cap of
// 32 × RetryBackoff.  An uncapped doubling would exceed it by the
// seventh attempt, where the test cancels the suite rather than sleep,
// and overflow time.Duration in the 48th.
func TestRetryBackoffCapped(t *testing.T) {
	const base = 100 * time.Microsecond
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var delays []time.Duration
	opt := fastSuite()
	opt.Context = ctx
	opt.Benchmarks = mustBench(t, "awk")
	opt.Retries = 63
	opt.RetryBackoff = base
	opt.CellRunner = func(context.Context, Cell, Options) (*BenchResult, error) {
		return nil, errors.New("transient")
	}
	opt.Progress = writerFunc(func(p []byte) {
		_, after, ok := strings.Cut(string(p), "retrying in ")
		if !ok {
			return
		}
		d, err := time.ParseDuration(strings.TrimSpace(after))
		if err != nil {
			t.Errorf("unparsable retry line %q", p)
		}
		if delays = append(delays, d); d <= 0 || d >= 32*base {
			cancel()
		}
	})
	_, err := RunSuite(opt)
	var se *SuiteError
	if !errors.As(err, &se) || len(se.Failures) != 1 {
		t.Fatalf("RunSuite = %v, want one failed cell", err)
	}
	if got := se.Failures[0].Attempts; got != 64 || len(delays) != 63 {
		t.Errorf("%d attempts, %d delays; want 64 and 63", got, len(delays))
	}
	for i, d := range delays {
		if d <= 0 || d >= 32*base {
			t.Errorf("delay before attempt %d = %v, want in (0, %v)", i+2, d, 32*base)
		}
	}
}

// writerFunc is an io.Writer that hands each write to a function.
type writerFunc func(p []byte)

func (f writerFunc) Write(p []byte) (int, error) {
	f(p)
	return len(p), nil
}

// TestBackoffSchedule checks the shared backoff doubles to its cap,
// jitters within the promised window, rewinds on reset, and clamps
// degenerate or overflowing inputs instead of panicking.
func TestBackoffSchedule(t *testing.T) {
	bo := NewBackoff(100*time.Millisecond, 400*time.Millisecond)
	expect := []time.Duration{100 * time.Millisecond, 200 * time.Millisecond, 400 * time.Millisecond, 400 * time.Millisecond}
	for i, cur := range expect {
		d := bo.Next()
		if d < cur/2 || d >= cur {
			t.Errorf("Next()[%d] = %v, want in [%v, %v)", i, d, cur/2, cur)
		}
	}
	bo.Reset()
	if d := bo.Next(); d < 50*time.Millisecond || d >= 100*time.Millisecond {
		t.Errorf("Next() after Reset = %v, want in [50ms, 100ms)", d)
	}
	bo = NewBackoff(0, -1)
	if d := bo.Next(); d <= 0 {
		t.Errorf("defaulted backoff returned %v", d)
	}
	bo = NewBackoff(time.Hour, math.MaxInt64)
	for i := 0; i < 64; i++ {
		if d := bo.Next(); d <= 0 {
			t.Fatalf("Next()[%d] under a maximal cap = %v, want positive", i, d)
		}
	}
}

// TestCellRunnerPanicKeepsWorkerStack checks a CellRunner panicking
// with a *limits.PanicError fails behind isolate, whose failure text
// carries the faulting worker's stack rather than the recovering
// goroutine's.
func TestCellRunnerPanicKeepsWorkerStack(t *testing.T) {
	const marker = "worker-stack-marker"
	opt := fastSuite()
	opt.Benchmarks = mustBench(t, "awk")
	opt.CellRunner = func(context.Context, Cell, Options) (*BenchResult, error) {
		panic(&limits.PanicError{Value: "boom", Stack: []byte(marker)})
	}
	_, err := RunSuite(opt)
	var se *SuiteError
	if !errors.As(err, &se) || len(se.Failures) != 1 {
		t.Fatalf("RunSuite = %v, want one failed cell", err)
	}
	if msg := se.Failures[0].Error; !strings.Contains(msg, "awk: analyzer panic: boom") || !strings.Contains(msg, marker) {
		t.Errorf("failure text %q lacks the analyzer panic or the worker's stack", msg)
	}
}

// TestCellRunnerPanicIsolated checks a panicking external scheduler is
// converted to a failure like a panicking benchmark, not a crash.
func TestCellRunnerPanicIsolated(t *testing.T) {
	opt := fastSuite()
	opt.Benchmarks = mustBench(t, "awk")
	opt.CellRunner = func(ctx context.Context, c Cell, o Options) (*BenchResult, error) {
		panic("scheduler exploded")
	}
	var degraded *SuiteError
	_, err := RunSuite(opt)
	if !errors.As(err, &degraded) {
		t.Fatalf("RunSuite = %v, want degraded suite", err)
	}
	if len(degraded.Failures) != 1 || !bytes.Contains([]byte(degraded.Failures[0].Error), []byte("scheduler exploded")) {
		t.Errorf("panic not captured in failure: %+v", degraded.Failures)
	}
}
