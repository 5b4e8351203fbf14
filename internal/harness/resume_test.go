package harness

import (
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ilplimit/internal/bench"
	"ilplimit/internal/faultinject"
	"ilplimit/internal/journal"
	"ilplimit/internal/limits"
	"ilplimit/internal/telemetry"
)

// mustBench resolves suite benchmarks by name for restricted test runs.
func mustBench(t *testing.T, names ...string) []bench.Benchmark {
	t.Helper()
	out := make([]bench.Benchmark, len(names))
	for i, n := range names {
		b, err := bench.ByName(n)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = b
	}
	return out
}

func TestRunSuiteRetriesTransientFailure(t *testing.T) {
	injected := errors.New("transient fault")
	var calls atomic.Int64
	withBenchHook(t, func(name string) error {
		if name == "ccom" && calls.Add(1) <= 2 {
			return injected
		}
		return nil
	})
	opt := fastSuite()
	opt.Benchmarks = mustBench(t, "ccom")
	opt.Retries = 3
	opt.RetryBackoff = time.Millisecond
	opt.Metrics = telemetry.NewRegistry()
	s, err := RunSuite(opt)
	if err != nil {
		t.Fatalf("RunSuite = %v, want success after retries", err)
	}
	if len(s.Benchmarks) != 1 {
		t.Fatalf("got %d results, want 1", len(s.Benchmarks))
	}
	if got := calls.Load(); got != 3 {
		t.Errorf("benchmark ran %d times, want 3 (two failures, one success)", got)
	}
	if got := s.Telemetry.Counters["bench.ccom.retries"]; got != 2 {
		t.Errorf("bench.ccom.retries = %d, want 2", got)
	}
}

func TestRunSuiteRetryBudgetExhausted(t *testing.T) {
	injected := errors.New("persistent fault")
	var calls atomic.Int64
	withBenchHook(t, func(name string) error {
		calls.Add(1)
		return injected
	})
	opt := fastSuite()
	opt.Benchmarks = mustBench(t, "ccom")
	opt.Retries = 2
	opt.RetryBackoff = time.Millisecond
	_, err := RunSuite(opt)
	var se *SuiteError
	if !errors.As(err, &se) {
		t.Fatalf("RunSuite error = %v, want *SuiteError", err)
	}
	if len(se.Failures) != 1 || se.Failures[0].Attempts != 3 {
		t.Fatalf("failures = %+v, want ccom after 3 attempts", se.Failures)
	}
	if got := calls.Load(); got != 3 {
		t.Errorf("benchmark ran %d times, want 3 (initial + 2 retries)", got)
	}
	res := &SuiteResult{Failures: se.Failures}
	if sum := res.FailureSummary(); !strings.Contains(sum, "[after 3 attempts]") {
		t.Errorf("FailureSummary missing attempt count:\n%s", sum)
	}
}

func TestFailureSummaryGolden(t *testing.T) {
	s := &SuiteResult{Failures: []BenchFailure{
		{Name: "awk", Error: "awk: analysis run: worker 2 panicked\ngoroutine 7 [running]:", Attempts: 3},
		{
			Name:     "latex",
			Error:    "latex: limits: model-ordering invariant violated: ORACLE (0.0000) < SP-CD-MF (39.6000) [unrolled]",
			Attempts: 1,
			Violations: []string{
				"ORACLE (0.0000) < SP-CD-MF (39.6000) [unrolled]",
				"ORACLE (0.0000) < SP (5.5000) [unrolled]",
			},
		},
		{Name: "spice2g6", Error: "spice2g6: injected benchmark failure"},
	}}
	want := "3 benchmark(s) failed:\n" +
		"  FAILED awk          awk: analysis run: worker 2 panicked [stack truncated; see Failures[].Err] [after 3 attempts]\n" +
		"  FAILED latex        latex: limits: model-ordering invariant violated: ORACLE (0.0000) < SP-CD-MF (39.6000) [unrolled]\n" +
		"    invariant violated: ORACLE (0.0000) < SP-CD-MF (39.6000) [unrolled]\n" +
		"    invariant violated: ORACLE (0.0000) < SP (5.5000) [unrolled]\n" +
		"  FAILED spice2g6     spice2g6: injected benchmark failure\n"
	if got := s.FailureSummary(); got != want {
		t.Errorf("FailureSummary mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestRunSuiteJournalResume(t *testing.T) {
	opt := fastSuite()
	opt.Benchmarks = mustBench(t, "ccom", "latex")

	// Reference: an uninterrupted run of the same configuration.
	fresh, err := RunSuite(opt)
	if err != nil {
		t.Fatal(err)
	}
	freshJSON, err := json.Marshal(fresh)
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted run: latex fails, ccom completes and is journaled.
	dir := t.TempDir()
	meta := opt.JournalMeta("deadbeef")
	jnl, err := journal.Open(dir, meta)
	if err != nil {
		t.Fatal(err)
	}
	injected := errors.New("injected crash")
	withBenchHook(t, func(name string) error {
		if name == "latex" {
			return injected
		}
		return nil
	})
	iopt := opt
	iopt.Journal = jnl
	if _, err := RunSuite(iopt); err == nil {
		t.Fatal("interrupted run reported success")
	}
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}

	// Resumed run: reopen the journal; only latex should execute.
	jnl2, err := journal.Open(dir, meta)
	if err != nil {
		t.Fatal(err)
	}
	defer jnl2.Close()
	if got := jnl2.Benchmarks(); len(got) != 1 || got[0] != "ccom" {
		t.Fatalf("recovered journal holds %v, want [ccom]", got)
	}
	var mu sync.Mutex
	var ran []string
	withBenchHook(t, func(name string) error {
		mu.Lock()
		ran = append(ran, name)
		mu.Unlock()
		return nil
	})
	ropt := opt
	ropt.Journal = jnl2
	resumed, err := RunSuite(ropt)
	if err != nil {
		t.Fatalf("resumed run = %v, want success", err)
	}
	if len(ran) != 1 || ran[0] != "latex" {
		t.Errorf("resumed run executed %v, want only latex", ran)
	}
	resumedJSON, err := json.Marshal(resumed)
	if err != nil {
		t.Fatal(err)
	}
	if string(resumedJSON) != string(freshJSON) {
		t.Errorf("resumed SuiteResult differs from the uninterrupted run:\nresumed: %s\nfresh:   %s",
			resumedJSON, freshJSON)
	}

	// A fully-journaled run resumes everything and says so in telemetry.
	withBenchHook(t, func(name string) error {
		t.Errorf("benchmark %s ran despite a complete journal", name)
		return nil
	})
	jnl3, err := journal.Open(dir, meta)
	if err != nil {
		t.Fatal(err)
	}
	defer jnl3.Close()
	fopt := opt
	fopt.Journal = jnl3
	fopt.Metrics = telemetry.NewRegistry()
	full, err := RunSuite(fopt)
	if err != nil {
		t.Fatalf("fully-resumed run = %v, want success", err)
	}
	if got := full.Telemetry.Counters["suite.resumed"]; got != 2 {
		t.Errorf("suite.resumed = %d, want 2", got)
	}
}

func TestRunSuiteInvariantViolationSeeded(t *testing.T) {
	// Starve the unrolled ORACLE analyzer (consumer 3 with this model
	// order) of every trace event: its schedule stays empty, its
	// parallelism is 0, and the ordering check must flag it below every
	// weaker model in its chain rather than report the bogus number.
	plan := &faultinject.Plan{DropConsumer: 3, DropFromSeq: 1}
	opt := Options{
		Models:       []limits.Model{limits.SP, limits.SPCD, limits.SPCDMF, limits.Oracle},
		Benchmarks:   mustBench(t, "ccom"),
		Retries:      2, // must not be spent: invariant failures are deterministic
		RetryBackoff: time.Millisecond,
		Faults:       func(string) *faultinject.Plan { return plan },
	}
	s, err := RunSuite(opt)
	var se *SuiteError
	if !errors.As(err, &se) {
		t.Fatalf("RunSuite error = %v, want *SuiteError", err)
	}
	var inv *limits.InvariantError
	if !errors.As(se.Failures[0].Err, &inv) {
		t.Fatalf("failure cause = %v, want *limits.InvariantError", se.Failures[0].Err)
	}
	if plan.FiredDropped() == 0 {
		t.Fatal("drop plan never fired; the violation was not seeded")
	}
	if se.Failures[0].Attempts != 1 {
		t.Errorf("attempts = %d, want 1 (invariant violations must not retry)", se.Failures[0].Attempts)
	}
	if len(se.Failures[0].Violations) == 0 {
		t.Fatal("BenchFailure.Violations is empty")
	}
	found := false
	for _, v := range inv.Violations {
		if v.Stronger == limits.Oracle && v.Unrolled {
			found = true
		}
	}
	if !found {
		t.Errorf("violations %v do not implicate the starved ORACLE analyzer", inv.Violations)
	}
	sum := s.FailureSummary()
	if !strings.Contains(sum, "invariant violated:") || !strings.Contains(sum, "ORACLE") {
		t.Errorf("FailureSummary missing the violation detail:\n%s", sum)
	}
}
