package harness

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"ilplimit/internal/bench"
	"ilplimit/internal/faultinject"
	"ilplimit/internal/journal"
	"ilplimit/internal/limits"
	"ilplimit/internal/minic"
	"ilplimit/internal/telemetry"
	"ilplimit/internal/vm"
)

// The run defaults of every suite benchmark, study, service job and
// ilplimit.Measure: DefaultMemWords words of VM and dependence-table
// memory (raised to fit a program's data segment, see vm.MemWords) and
// at most DefaultStepLimit VM steps.  The suite's traces are far
// shorter; the limit catches runaway programs.  vm.New keeps its own,
// larger image and smaller limit.
const (
	DefaultMemWords        = 1 << 20
	DefaultStepLimit int64 = 1 << 32
)

// Options configure a run.
type Options struct {
	// Scale multiplies benchmark sizes (default 1).
	Scale int
	// MemWords sizes the VM and dependence-table memory (default
	// DefaultMemWords).
	MemWords int
	// Models restricts the analysis (default: all seven).
	Models []limits.Model
	// Optimize runs the post-codegen optimizer (internal/opt) before
	// analysis, modelling a stronger compiler.
	Optimize bool
	// Jobs bounds how many benchmarks RunSuite analyzes concurrently
	// (default: GOMAXPROCS; the paged dependence tables keep each job's
	// footprint proportional to its working set, so saturating the cores
	// is no longer memory-hungry).
	Jobs int
	// Progress, when non-nil, receives one line per pipeline stage.
	// RunSuite interleaves lines from concurrent benchmarks; writes are
	// serialized internally, so any io.Writer is safe here.
	Progress io.Writer
	// Context cancels the pipeline: every VM pass checks it and aborts
	// with an error wrapping vm.ErrCanceled once it is done (nil means
	// context.Background()).  RunSuite additionally stops admitting new
	// benchmarks after cancellation.
	Context context.Context
	// StepLimit bounds every VM run of the pipeline (default
	// DefaultStepLimit); lowering it is the cheapest way to fault a run
	// in tests.
	StepLimit int64
	// Metrics, when non-nil, turns on pipeline telemetry: per-benchmark
	// stage timings ("bench.<name>.stage.*_ns"), VM counters for the
	// profile and analysis passes ("bench.<name>.vm.<pass>.*"), replay
	// ring statistics ("bench.<name>.ring.*"), and per-analyzer schedule
	// results ("bench.<name>.analyzer.*").  One registry is safely
	// shared by every concurrent benchmark of a suite run; nil (the
	// default) keeps all hot paths on their nil-check fast path.  See
	// DESIGN.md §9 for the catalogue and MetricsReport for rendering.
	Metrics *telemetry.Registry
	// Benchmarks restricts RunSuite to these suite entries, in order
	// (default: bench.All()).  Results and failure reporting follow this
	// slice's order exactly as they would the full suite's.
	Benchmarks []bench.Benchmark
	// Journal, when non-nil, makes RunSuite crash-safe: every completed
	// benchmark's result is appended to the journal (checksummed and
	// fsync'd before the suite moves on), and benchmarks already present
	// in the journal — recovered from a previous interrupted run of the
	// same configuration — are reused without re-running, reproducing
	// the uninterrupted run's SuiteResult byte for byte.  Open the
	// journal with the fingerprint from Options.JournalMeta.
	Journal *journal.Journal
	// Retries re-runs a benchmark that failed with a transient error
	// (worker panic, injected fault, watchdog stall) up to this many
	// extra times before recording the failure.  Deterministic failures
	// — cancellation, step-limit overruns, model-ordering invariant
	// violations — are never retried.  Attempt counts surface through
	// the "bench.<name>.retries" counter and BenchFailure.Attempts.
	Retries int
	// RetryBackoff is the delay before the first retry (default 100ms),
	// doubling per attempt with jitter drawn from the upper half of the
	// interval, so concurrent benchmarks retrying together spread out.
	RetryBackoff time.Duration
	// Watchdog, when positive, arms the replay ring's per-consumer stall
	// watchdog: a consumer worker that completes no chunk while one is
	// available for this long is detached like a panicked worker and the
	// benchmark fails with a *limits.StallError (a transient failure,
	// eligible for Retries).  Zero disables the watchdog.
	Watchdog time.Duration
	// CellRunner, when non-nil, delegates each suite cell's execution to
	// an external scheduler — the distributed fabric's coordinator plugs
	// in here — instead of running it in-process.  The runner must
	// return the cell's BenchResult exactly as RunBenchmark would
	// produce it; its errors flow through the same retry policy as local
	// failures, with an error exposing a `Retryable() bool` method
	// overriding the default transient/deterministic classification.
	// Resume, journaling, merge ordering, and failure reporting are
	// unchanged, which is what keeps a distributed run's output
	// byte-identical to a local one.  CellRunner does not participate in
	// JournalMeta: where a cell runs cannot change its result.
	CellRunner CellRunner
	// Faults, when non-nil, supplies a deterministic fault-injection
	// plan per benchmark — chaos runs plug a seeded schedule in here.
	// A nil return leaves that benchmark alone.  The plan's VM trap
	// installs as the machine's StepHook and its replay faults as the
	// analysis replay's hooks.  Faults does not participate in
	// JournalMeta: an injected fault either delays an attempt or aborts
	// it (and the retry policy re-runs it); it never changes a completed
	// benchmark's result.
	Faults func(bench string) *faultinject.Plan
	// TraceStore, when non-empty, names the directory of the persistent
	// annotated trace store (internal/tracestore).  A benchmark whose
	// exact (program, predictor config, lane) fingerprint is cached
	// replays the annotated trace zero-copy through the analyzers — no
	// VM run, no annotation, no ring — and a benchmark that traces live
	// spills its annotated chunks into the store as it goes (skipped
	// under injected faults, which may mutate chunks in flight).  A
	// missing, torn, corrupt, or fingerprint-skewed cache entry falls
	// back to the live producer: the store can change cost, never
	// results, which is also why TraceStore does not participate in
	// JournalMeta.
	TraceStore string
}

// benchStartHook, when non-nil, runs at the top of every RunBenchmark; a
// non-nil error (or a panic) aborts that benchmark only.  It exists so
// resilience tests can fault one benchmark of a suite deterministically,
// and stays nil in production.
var benchStartHook func(name string) error

// syncWriter serializes Progress writes from benchmarks running
// concurrently under RunSuite, which would otherwise race on the shared
// underlying writer.
type syncWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

func (o Options) withDefaults() Options {
	if o.Scale < 1 {
		o.Scale = 1
	}
	if o.MemWords == 0 {
		o.MemWords = DefaultMemWords
	}
	if o.Models == nil {
		o.Models = limits.AllModels()
	}
	if o.Jobs < 1 {
		o.Jobs = runtime.GOMAXPROCS(0)
	}
	if o.StepLimit == 0 {
		o.StepLimit = DefaultStepLimit
	}
	if o.Benchmarks == nil {
		o.Benchmarks = bench.All()
	}
	if o.RetryBackoff <= 0 {
		o.RetryBackoff = 100 * time.Millisecond
	}
	if o.Progress != nil {
		if _, ok := o.Progress.(*syncWriter); !ok {
			o.Progress = &syncWriter{w: o.Progress}
		}
	}
	return o
}

// ctx returns the run's context, defaulting to Background.
func (o Options) ctx() context.Context {
	if o.Context != nil {
		return o.Context
	}
	return context.Background()
}

// JournalMeta derives the resume-compatibility fingerprint of this run
// configuration, for journal.Open.  Only fields that change benchmark
// results participate: Scale, MemWords, Optimize, StepLimit, the model
// set and the benchmark list.  Concurrency and observability knobs
// (Jobs, Progress, Metrics, Retries, Watchdog) are excluded —
// scheduling never changes results, so a resumed run may change them
// freely.  gitSHA is recorded for provenance but does not gate
// resumption.
func (o Options) JournalMeta(gitSHA string) journal.Meta {
	o = o.withDefaults()
	m := journal.Meta{
		SchemaVersion: journal.SchemaVersion,
		GitSHA:        gitSHA,
		Scale:         o.Scale,
		MemWords:      o.MemWords,
		Optimize:      o.Optimize,
		StepLimit:     o.StepLimit,
	}
	for _, md := range o.Models {
		m.Models = append(m.Models, md.String())
	}
	for _, b := range o.Benchmarks {
		m.Benchmarks = append(m.Benchmarks, b.Name)
	}
	return m
}

// BenchResult holds everything the paper reports about one benchmark.
type BenchResult struct {
	Name        string
	Language    string
	Description string
	Numeric     bool

	// Branch statistics (Table 2).
	PredictionRate     float64
	InstrsPerBranch    float64
	DynamicCondBr      int64
	TraceInstructions  int64 // after perfect inlining, before unrolling
	StaticInstructions int

	// Parallelism per model with perfect unrolling (Table 3) and without
	// (the baseline for Table 4).
	Par         map[limits.Model]float64
	ParNoUnroll map[limits.Model]float64

	// SP-machine misprediction segments (Figures 6 and 7), from the
	// unrolled configuration.
	Segments map[int64]limits.SegAgg

	// Telemetry is this benchmark's slice of the pipeline metrics
	// (stage timings, VM counters, ring statistics), captured when
	// Options.Metrics was set and omitted otherwise.
	Telemetry *telemetry.Snapshot `json:",omitempty"`
}

// UnrollChangePercent returns Table 4's percent change in parallelism due
// to perfect loop unrolling for one model.
func (r *BenchResult) UnrollChangePercent(m limits.Model) float64 {
	base := r.ParNoUnroll[m]
	if base == 0 {
		return 0
	}
	return 100 * (r.Par[m] - base) / base
}

// BenchFailure records one benchmark's failure inside a suite run.
type BenchFailure struct {
	Name string
	// Err is the benchmark's error (a converted panic carries the
	// faulting stack in its message).  Excluded from JSON; Error carries
	// the message there.
	Err   error `json:"-"`
	Error string
	// Attempts counts how many times the benchmark ran before the suite
	// gave up: 1 when it failed outright, more when Options.Retries
	// re-ran a transient failure.
	Attempts int `json:",omitempty"`
	// Violations lists the model-ordering invariant violations behind
	// this failure, one rendered pair per entry, when Err wraps a
	// *limits.InvariantError.
	Violations []string `json:",omitempty"`
}

// SuiteError is the aggregate error of a partially-failed suite run: the
// SuiteResult it accompanies still holds every benchmark that succeeded.
type SuiteError struct {
	Failures []BenchFailure
	Total    int // benchmarks attempted
}

// Error summarizes which benchmarks failed out of how many attempted.
func (e *SuiteError) Error() string {
	names := make([]string, len(e.Failures))
	for i, f := range e.Failures {
		names[i] = f.Name
	}
	return fmt.Sprintf("suite: %d of %d benchmarks failed: %s",
		len(e.Failures), e.Total, strings.Join(names, ", "))
}

// SuiteResult aggregates the whole suite.
type SuiteResult struct {
	Benchmarks []BenchResult
	Models     []limits.Model
	// Failures lists the benchmarks that errored or panicked, in suite
	// order; Benchmarks holds only the survivors.
	Failures []BenchFailure `json:",omitempty"`
	// Telemetry is the suite-wide metrics snapshot (every benchmark's
	// metrics under its "bench.<name>." prefix), captured when
	// Options.Metrics was set and omitted otherwise.  MetricsReport
	// renders it as a stage-timing table.
	Telemetry *telemetry.Snapshot `json:",omitempty"`
}

// FailureSummary renders the per-benchmark failure list of a degraded run
// (empty when every benchmark succeeded).
func (s *SuiteResult) FailureSummary() string {
	if len(s.Failures) == 0 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%d benchmark(s) failed:\n", len(s.Failures))
	for _, f := range s.Failures {
		msg := f.Error
		if i := strings.IndexByte(msg, '\n'); i >= 0 {
			msg = msg[:i] + " [stack truncated; see Failures[].Err]"
		}
		if f.Attempts > 1 {
			msg += fmt.Sprintf(" [after %d attempts]", f.Attempts)
		}
		fmt.Fprintf(&b, "  FAILED %-12s %s\n", f.Name, msg)
		for _, v := range f.Violations {
			fmt.Fprintf(&b, "    invariant violated: %s\n", v)
		}
	}
	return b.String()
}

// NonNumeric returns the results for the paper's seven non-numeric
// benchmarks.
func (s *SuiteResult) NonNumeric() []BenchResult {
	var out []BenchResult
	for _, r := range s.Benchmarks {
		if !r.Numeric {
			out = append(out, r)
		}
	}
	return out
}

// RunBenchmark executes the full pipeline for one benchmark.
func RunBenchmark(b bench.Benchmark, opt Options) (*BenchResult, error) {
	opt = opt.withDefaults()
	if benchStartHook != nil {
		if err := benchStartHook(b.Name); err != nil {
			return nil, fmt.Errorf("%s: %w", b.Name, err)
		}
	}

	// All of this benchmark's metrics live under one prefix, so a suite
	// run's shared registry keeps concurrent benchmarks apart.  A nil
	// scope (telemetry off) makes every timer and counter a no-op.
	scope := opt.Metrics.WithPrefix("bench." + b.Name + ".")
	benchDone := stageTimer(scope, "wall")
	p, err := benchPass(b, opt, minic.Options{})
	if err != nil {
		return nil, err
	}
	// Every model, with and without perfect unrolling, over one replay
	// of the trace: the unrolled analyzers in model order, then the
	// plain ones, in two fused sets.
	var unrolled, plain *limits.Group
	var res *BenchResult
	err = p.run([]string{"profile"}, func(sts []*limits.Static) []*limits.Analyzer {
		unrolled = limits.NewGroup(sts[0], p.words, opt.Models, true)
		plain = limits.NewGroup(sts[0], p.words, opt.Models, false)
		return append(append([]*limits.Analyzer(nil), unrolled.Analyzers...), plain.Analyzers...)
	}, func() error {
		res = &BenchResult{
			Name:               b.Name,
			Language:           b.Language,
			Description:        b.Description,
			Numeric:            b.Numeric,
			PredictionRate:     p.meta.PredictionRate,
			DynamicCondBr:      p.meta.DynamicCondBr,
			TraceInstructions:  p.meta.TraceInstructions,
			StaticInstructions: len(p.prog.Instrs),
			Par:                make(map[limits.Model]float64),
			ParNoUnroll:        groupPar(plain),
		}
		for _, r := range unrolled.Results() {
			res.Par[r.Model] = r.Parallelism()
			if r.Model == limits.SP {
				res.Segments = r.Segments
			}
		}
		if res.DynamicCondBr > 0 {
			res.InstrsPerBranch = float64(res.TraceInstructions) / float64(res.DynamicCondBr)
		}
		return checkOrdering(res.Par, res.ParNoUnroll)
	})
	if err != nil {
		return nil, err
	}
	for _, r := range append(unrolled.Results(), plain.Results()...) {
		recordAnalyzer(scope, r)
	}
	benchDone()
	if opt.Metrics != nil {
		res.Telemetry = opt.Metrics.Snapshot().Filter("bench." + b.Name + ".")
	}
	return res, nil
}

// checkOrdering refuses the numbers of an analysis in which a weaker
// model outperforms a strictly stronger one, with unrolling (unrolled)
// or without (plain): the analysis itself is broken (corrupted replay,
// starved analyzer).  A nil map checks nothing.
func checkOrdering(unrolled, plain map[limits.Model]float64) error {
	viol := append(limits.CheckOrdering(unrolled, true), limits.CheckOrdering(plain, false)...)
	if len(viol) > 0 {
		return &limits.InvariantError{Violations: viol}
	}
	return nil
}

// isolate is the per-program panic-isolation boundary, deferred by
// runBenchmarkIsolated and Measure so one crash cannot take down a
// suite run or the daemon: it converts a panic into *err, labelled with
// the program's name and carrying the faulting stack.  Everything a
// program's analysis does — compile, profile, fan-out replay — happens
// below it.
func isolate(name string, err *error) {
	if p := recover(); p != nil {
		if pe, ok := p.(*limits.PanicError); ok {
			// An analyzer worker panicked; ReplayWith preserved the
			// stack of the faulting goroutine.
			*err = fmt.Errorf("%s: %w\n%s", name, pe, pe.Stack)
			return
		}
		*err = fmt.Errorf("%s: panic: %v\n%s", name, p, debug.Stack())
	}
}

// runBenchmarkIsolated runs RunBenchmark behind isolate.
func runBenchmarkIsolated(b bench.Benchmark, opt Options) (res *BenchResult, err error) {
	defer isolate(b.Name, &err)
	return RunBenchmark(b, opt)
}

// retryable reports whether a benchmark failure is transient — worth
// re-running — or deterministic.  Cancellation and step-limit overruns
// reproduce exactly; an invariant violation means the analysis computed
// wrong numbers, and a retry that happened to pass would hide a bug.
// Panics, injected faults, and watchdog stalls are environmental and
// retry.  An error exposing a Retryable method — remote cell failures
// arrive pre-classified by the worker that saw the original error —
// decides for itself.
func retryable(err error) bool {
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

// runCellResilient wraps executeCell with the suite's bounded-retry
// policy: up to opt.Retries extra attempts for transient failures,
// exponential backoff with jitter between them.  It returns the result
// of the last attempt and how many attempts were made.
func runCellResilient(c Cell, opt Options) (*BenchResult, int, error) {
	ctx := opt.ctx()
	retries := opt.Metrics.Counter("bench." + c.Bench.Name + ".retries")
	for attempt := 1; ; attempt++ {
		res, err := executeCell(c, opt)
		if err == nil || attempt > opt.Retries || !retryable(err) {
			return res, attempt, err
		}
		// Exponential backoff, jittered into the upper half of the
		// interval so concurrent benchmarks retrying together spread out.
		backoff := opt.RetryBackoff << (attempt - 1)
		delay := backoff/2 + time.Duration(rand.Int63n(int64(backoff/2)+1))
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

// RunSuite executes the pipeline for every benchmark in the suite,
// analyzing up to Options.Jobs benchmarks concurrently.  Results are
// deterministic and reported in suite order regardless of scheduling.
//
// A failing benchmark — error, panic, or cancellation — no longer voids
// the run: RunSuite always returns the SuiteResult with every benchmark
// that succeeded, and a non-nil *SuiteError describing the ones that did
// not.  Callers that render partial results check errors.As(err,
// **SuiteError); any other non-nil error still means "nothing usable".
func RunSuite(opt Options) (*SuiteResult, error) {
	opt = opt.withDefaults()
	ctx := opt.ctx()
	benches := opt.Benchmarks
	results := make([]*BenchResult, len(benches))
	errs := make([]error, len(benches))
	attempts := make([]int, len(benches))

	// Resume: benchmarks already journaled by an interrupted run of the
	// same configuration are reused verbatim instead of re-run.
	skip := make([]bool, len(benches))
	var appender *orderedAppender
	if opt.Journal != nil {
		appender = newOrderedAppender(opt.Journal, benches)
		var resumed int64
		for i, b := range benches {
			raw, ok := opt.Journal.Lookup(b.Name)
			if !ok {
				continue
			}
			var res BenchResult
			if err := json.Unmarshal(raw, &res); err != nil {
				// CRC-clean but unparseable: schema drift the meta
				// fingerprint missed.  Re-run the benchmark.
				continue
			}
			results[i], skip[i], resumed = &res, true, resumed+1
			// Already durable: settle the cell so the appender's cursor
			// can move past it without writing a duplicate record.
			appender.settle(i, nil)
			if opt.Progress != nil {
				fmt.Fprintf(opt.Progress, "[%s] resumed from journal\n", b.Name)
			}
		}
		if resumed > 0 {
			opt.Metrics.Counter("suite.resumed").Add(resumed)
		}
	}

	sem := make(chan struct{}, opt.Jobs)
	var wg sync.WaitGroup
	for i := range benches {
		if skip[i] {
			continue
		}
		// Acquire before spawning: a large suite queues here instead of
		// materializing one idle goroutine per benchmark up front, and a
		// canceled run stops admitting work at all.
		select {
		case sem <- struct{}{}:
		case <-ctx.Done():
			errs[i] = fmt.Errorf("%s: %w: suite canceled (%v)",
				benches[i].Name, vm.ErrCanceled, ctx.Err())
			if appender != nil {
				appender.settle(i, nil)
			}
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			results[i], attempts[i], errs[i] = runCellResilient(Cell{Index: i, Bench: benches[i]}, opt)
			if appender != nil {
				// Checkpoint through the ordered appender: records land in
				// suite order whatever order cells finish in, so the
				// journal's bytes are deterministic — the invariant the
				// distributed fabric's byte-identity guarantee rests on.
				// A completed cell may wait here for earlier ones; a crash
				// in that window re-runs it, which resume tolerates.
				if errs[i] == nil {
					appender.settle(i, results[i])
				} else {
					appender.settle(i, nil)
				}
			}
		}(i)
	}
	wg.Wait()
	if appender != nil {
		// A benchmark whose result could not be made durable counts as
		// failed, because a resumed run could not reproduce this one.
		for i := range benches {
			if errs[i] == nil {
				if err := appender.appendErr(i); err != nil {
					errs[i] = fmt.Errorf("%s: journal: %w", benches[i].Name, err)
				}
			}
		}
	}
	out := &SuiteResult{Models: opt.Models}
	if opt.Metrics != nil {
		out.Telemetry = opt.Metrics.Snapshot()
	}
	for i := range benches {
		if errs[i] != nil {
			f := BenchFailure{
				Name: benches[i].Name, Err: errs[i], Error: errs[i].Error(),
				Attempts: attempts[i],
			}
			var inv *limits.InvariantError
			if errors.As(errs[i], &inv) {
				for _, v := range inv.Violations {
					f.Violations = append(f.Violations, v.String())
				}
			}
			out.Failures = append(out.Failures, f)
			continue
		}
		out.Benchmarks = append(out.Benchmarks, *results[i])
	}
	if len(out.Failures) > 0 {
		return out, &SuiteError{Failures: out.Failures, Total: len(benches)}
	}
	return out, nil
}
