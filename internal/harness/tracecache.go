package harness

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"

	"ilplimit/internal/bench"
	"ilplimit/internal/iofault"
	"ilplimit/internal/isa"
	"ilplimit/internal/limits"
	"ilplimit/internal/telemetry"
	"ilplimit/internal/tracestore"
	"ilplimit/internal/vm"
)

// Trace-cache integration: RunBenchmark's warm path and the live
// path's cold write-through.  The contract both directions share is
// that the store can only ever change a run's cost — a warm replay
// rebuilds a byte-identical BenchResult from the stored annotated
// chunks plus the storeMeta sidecar, and every cache problem (miss,
// torn file, CRC or fingerprint skew, replay panic) falls back to the
// live producer.

// storeMeta is the sidecar committed beside a benchmark's annotated
// trace: the profile-pass statistics a warm replay needs to rebuild
// its BenchResult without running the VM.  Floats survive the JSON
// round-trip exactly (shortest-form encoding), so warm and live
// results stay byte-identical.
type storeMeta struct {
	// PredictionRate is the profile predictor's hit rate (Table 2).
	PredictionRate float64
	// TraceInstructions counts filtered trace instructions.
	TraceInstructions int64
	// DynamicCondBr counts filtered conditional branches.
	DynamicCondBr int64
	// Steps is the VM's total dynamic instruction count.
	Steps int64
}

// cachedOracle guards the warm path's placeholder predictor: every
// speculative analyzer resolves mispredictions from the lane bit the
// producing replay stamped into the trace, so any live query means the
// lane assignment went wrong — panic (recovered into a live-run
// fallback) rather than silently mispredict.
type cachedOracle struct{ bench string }

// Mispredicted always panics; see cachedOracle.
func (o cachedOracle) Mispredicted(vm.Event) bool {
	panic("harness: cached replay for " + o.bench + " queried the predictor (lane annotation missing)")
}

// benchMemWords mirrors vm.NewSized's memory sizing so the warm path
// builds analyzer groups with the exact memWords a live run's
// len(machine.Mem) would supply.
func benchMemWords(prog *isa.Program, opt Options) int {
	words := opt.MemWords
	if min := int(isa.DataBase) + len(prog.Data) + 1; words < min {
		words = min
	}
	return words
}

// storeKey is the trace-store cache key of one analysis replay: the
// benchmark name, the predictor set the lanes were annotated against,
// and the program, annotation and lane-count fingerprints.  A suite
// benchmark's model × unroll analyzers share one Static annotated
// against the "profile" predictor.  Ad-hoc service jobs use the
// constant bench name "job", which carries no identity — the program
// CRC and annotation fingerprint do — so two submissions of the same
// program share one entry regardless of which models they request (the
// trace is a property of the program, not its consumers).
func storeKey(bench, predictors string, prog *isa.Program, st *limits.Static, lanes int) tracestore.Key {
	return tracestore.Key{
		Bench:      bench,
		ProgramCRC: tracestore.ProgramCRC(prog),
		Annotation: st.AnnotationFingerprint(),
		Predictors: predictors,
		Lanes:      lanes,
	}
}

// cachedBenchmark serves RunBenchmark's analysis from the trace store.
// It returns (nil, nil) when the benchmark must run live — miss,
// corrupt or skewed file, unreadable sidecar, invariant violation, or
// a recovered replay panic — (res, nil) on a warm hit, and a non-nil
// error only for failures that must not fall back (cancellation).
func cachedBenchmark(ctx context.Context, b bench.Benchmark, opt Options, prog *isa.Program,
	scope *telemetry.Registry, logf func(string, ...interface{})) (res *BenchResult, err error) {
	store, serr := tracestore.Open(iofault.OS(), opt.TraceStore)
	if serr != nil {
		logf("[%s] trace cache: %v; running live", b.Name, serr)
		return nil, nil
	}
	defer func() {
		if p := recover(); p != nil {
			scope.Counter("store.fallbacks").Inc()
			logf("[%s] trace cache: replay panic (%v); running live", b.Name, p)
			res, err = nil, nil
		}
	}()
	predecodeDone := stageTimer(scope, "predecode")
	st, serr := limits.NewStatic(prog, cachedOracle{b.Name})
	predecodeDone()
	if serr != nil {
		// The live path would fail identically; let it produce the error.
		return nil, nil
	}
	memWords := benchMemWords(prog, opt)
	unrolled := limits.NewGroup(st, memWords, opt.Models, true)
	plain := limits.NewGroup(st, memWords, opt.Models, false)
	all := make([]*limits.Analyzer, 0, len(unrolled.Analyzers)+len(plain.Analyzers))
	all = append(all, unrolled.Analyzers...)
	all = append(all, plain.Analyzers...)
	lanes := limits.AssignReplayLanes(all...)
	rep, oerr := store.Open(storeKey(b.Name, "profile", prog, st, lanes))
	if oerr != nil {
		if errors.Is(oerr, tracestore.ErrMiss) {
			scope.Counter("store.misses").Inc()
			logf("[%s] trace cache: miss; tracing live", b.Name)
		} else {
			scope.Counter("store.fallbacks").Inc()
			logf("[%s] trace cache: %v; running live", b.Name, oerr)
		}
		return nil, nil
	}
	defer rep.Close()
	var sm storeMeta
	if jerr := json.Unmarshal(rep.Meta(), &sm); jerr != nil {
		scope.Counter("store.fallbacks").Inc()
		logf("[%s] trace cache: bad sidecar (%v); running live", b.Name, jerr)
		return nil, nil
	}
	logf("[%s] analyzing %d models x 2 unroll configs over %d instructions (cached trace, %d frames)",
		b.Name, len(opt.Models), sm.Steps, rep.Frames())
	replayDone := stageTimer(scope, "cached_replay")
	rerr := rep.Run(ctx, false, all...)
	replayDone()
	if rerr != nil {
		// Every frame was CRC-validated at Open, so a mid-replay error
		// is the caller's own — cancellation — and aborts like a live
		// run instead of falling back.
		return nil, fmt.Errorf("analysis run: %w", rerr)
	}

	res = &BenchResult{
		Name:               b.Name,
		Language:           b.Language,
		Description:        b.Description,
		Numeric:            b.Numeric,
		DynamicCondBr:      sm.DynamicCondBr,
		TraceInstructions:  sm.TraceInstructions,
		StaticInstructions: len(prog.Instrs),
		Par:                make(map[limits.Model]float64),
		ParNoUnroll:        make(map[limits.Model]float64),
	}
	res.PredictionRate = sm.PredictionRate
	if sm.DynamicCondBr > 0 {
		res.InstrsPerBranch = float64(sm.TraceInstructions) / float64(sm.DynamicCondBr)
	}
	for _, r := range unrolled.Results() {
		res.Par[r.Model] = r.Parallelism()
		if r.Model == limits.SP {
			res.Segments = r.Segments
		}
		recordAnalyzer(scope, r)
	}
	for _, r := range plain.Results() {
		res.ParNoUnroll[r.Model] = r.Parallelism()
		recordAnalyzer(scope, r)
	}
	viol := limits.CheckOrdering(res.Par, true)
	viol = append(viol, limits.CheckOrdering(res.ParNoUnroll, false)...)
	if len(viol) > 0 {
		// A CRC-valid trace that schedules inconsistently is not
		// trustworthy; rerun live (which rebuilds fresh analyzers and
		// will either succeed or fail honestly).
		scope.Counter("store.fallbacks").Inc()
		logf("[%s] trace cache: cached replay violated model ordering; running live", b.Name)
		return nil, nil
	}
	scope.Counter("store.hits").Inc()
	return res, nil
}

// cachedStudyReplay serves a study's analyzer replay from the trace
// store, populating it on a miss.  Study keys reuse the suite's
// fingerprint space deliberately: a trace is a property of (program,
// annotation, predictor lanes), not of which analyzers consume it, so
// a suite-populated "profile" trace serves the window, latency, and
// guarded studies — every model × window × latency cell walks the same
// stored stream.  It returns handled=false only when the store
// directory itself is unusable (run live, uncached); otherwise the
// replay happened here — warm from disk, or live with write-through.
func cachedStudyReplay(opt Options, name, predictors string, prog *isa.Program, st *limits.Static,
	machine *vm.VM, analyzers []*limits.Analyzer) (handled bool, err error) {
	store, serr := tracestore.Open(iofault.OS(), opt.TraceStore)
	if serr != nil {
		return false, nil
	}
	key := storeKey(name, predictors, prog, st, limits.AssignReplayLanes(analyzers...))
	if rep, oerr := store.Open(key); oerr == nil {
		defer rep.Close()
		return true, rep.Run(opt.ctx(), false, analyzers...)
	}
	// Miss or unusable file: trace live and write through.  Studies
	// carry their statistics outside the store, so the sidecar is empty.
	pop, perr := store.BeginPopulate(key, nil)
	var ropt limits.ReplayOptions
	if perr == nil {
		ropt.Sink = pop.Sink()
	}
	err = limits.ReplayWith(opt.ctx(), ropt, machine.RunContext, analyzers...)
	if perr == nil {
		if err != nil {
			pop.Abort()
		} else {
			// A failed commit costs the cache entry, not the study.
			_ = pop.Commit()
		}
	}
	return true, err
}

// cachedJob serves an ad-hoc analysis job from the trace store.  Like
// cachedBenchmark it returns (nil, nil) when the job must run live and
// a non-nil error only for failures that must not fall back
// (cancellation mid-replay).
func cachedJob(ctx context.Context, spec JobSpec, prog *isa.Program) (res *JobResult, err error) {
	store, serr := tracestore.Open(iofault.OS(), spec.TraceStore)
	if serr != nil {
		return nil, nil
	}
	defer func() {
		if p := recover(); p != nil {
			res, err = nil, nil
		}
	}()
	st, serr := limits.NewStatic(prog, cachedOracle{"job"})
	if serr != nil {
		return nil, nil
	}
	group := limits.NewGroup(st, spec.MemWords, spec.Models, !spec.DisableUnrolling)
	lanes := limits.AssignReplayLanes(group.Analyzers...)
	rep, oerr := store.Open(storeKey("job", "profile", prog, st, lanes))
	if oerr != nil {
		return nil, nil
	}
	defer rep.Close()
	if rerr := rep.Run(ctx, false, group.Analyzers...); rerr != nil {
		return nil, fmt.Errorf("job: analysis run: %w", rerr)
	}
	par := make(map[limits.Model]float64, len(spec.Models))
	for _, r := range group.Results() {
		par[r.Model] = r.Parallelism()
	}
	if viol := limits.CheckOrdering(par, !spec.DisableUnrolling); len(viol) > 0 {
		// Untrustworthy replay; the live run rebuilds fresh analyzers.
		return nil, nil
	}
	return &JobResult{Rows: []MatrixRow{{Name: "program", Par: modelPar(par)}}}, nil
}

// beginJobPopulate starts the cold write-through for an ad-hoc job's
// analysis replay; nil means the store is unusable and the job simply
// runs uncached.
func beginJobPopulate(spec JobSpec, prog *isa.Program, st *limits.Static, analyzers []*limits.Analyzer) *tracestore.Populate {
	store, err := tracestore.Open(iofault.OS(), spec.TraceStore)
	if err != nil {
		return nil
	}
	lanes := limits.AssignReplayLanes(analyzers...)
	pop, err := store.BeginPopulate(storeKey("job", "profile", prog, st, lanes), nil)
	if err != nil {
		return nil
	}
	return pop
}

// beginBenchPopulate starts the cold write-through for a live analysis
// replay, returning nil (with a log line) when the store is unusable —
// the benchmark itself must never fail because its cache could not be
// written.
func beginBenchPopulate(b bench.Benchmark, opt Options, prog *isa.Program, st *limits.Static,
	all []*limits.Analyzer, meta storeMeta, scope *telemetry.Registry, logf func(string, ...interface{})) *tracestore.Populate {
	store, err := tracestore.Open(iofault.OS(), opt.TraceStore)
	if err != nil {
		scope.Counter("store.populate_errors").Inc()
		logf("[%s] trace cache: %v; not populating", b.Name, err)
		return nil
	}
	mb, err := json.Marshal(meta)
	if err != nil {
		return nil
	}
	lanes := limits.AssignReplayLanes(all...)
	pop, err := store.BeginPopulate(storeKey(b.Name, "profile", prog, st, lanes), mb)
	if err != nil {
		scope.Counter("store.populate_errors").Inc()
		logf("[%s] trace cache: %v; not populating", b.Name, err)
		return nil
	}
	return pop
}
