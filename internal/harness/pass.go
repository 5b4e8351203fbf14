package harness

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"
	"time"

	"ilplimit/internal/asm"
	"ilplimit/internal/bench"
	"ilplimit/internal/faultinject"
	"ilplimit/internal/iofault"
	"ilplimit/internal/isa"
	"ilplimit/internal/limits"
	"ilplimit/internal/minic"
	optimizer "ilplimit/internal/opt"
	"ilplimit/internal/predict"
	"ilplimit/internal/telemetry"
	"ilplimit/internal/trace"
	"ilplimit/internal/tracestore"
	"ilplimit/internal/vm"
)

// One analysis path.  Every table, study and service job is an
// instance of Lam & Wilson's trace-driven method: profile the program
// once, annotate its trace once, and schedule that trace under every
// analyzer.  A pass does this for one program, and its callers differ
// only in the analyzers they build and the results they check.  A pass
// with a trace store first tries the stored annotated trace, which
// replays with no VM run; otherwise it runs live and writes the trace
// through.  The store can only ever change a run's cost: a stored
// replay rebuilds byte-identical results from the stored chunks plus
// the storeMeta sidecar, and every cache problem (miss, torn file, CRC
// or fingerprint skew, bad sidecar, replay panic, rejected results)
// falls back to a live replay on fresh analyzers.

// storeMeta is the sidecar committed beside every stored trace: the
// profile-pass statistics a warm replay needs to rebuild a result
// without running the VM.  Floats survive the JSON round-trip exactly
// (shortest-form encoding), so warm and live results stay
// byte-identical.
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

// cachedOracle is the warm replay's placeholder predictor: every
// speculative analyzer resolves mispredictions from the lane bit the
// producing replay stamped into the trace, so any live query means the
// lane assignment went wrong — panic (recovered into a live-run
// fallback) rather than silently mispredict.
type cachedOracle struct{ name string }

// Mispredicted always panics; see cachedOracle.
func (o cachedOracle) Mispredicted(vm.Event) bool {
	panic("harness: cached replay for " + o.name + " queried the predictor (lane annotation missing)")
}

// pass is one program's trace-driven analysis; see run.
type pass struct {
	// name labels progress lines and errors and is the store key's
	// bench name: a suite benchmark's name, or "job" for a service job
	// (the program CRC and annotation fingerprint carry the identity).
	name  string
	prog  *isa.Program
	words int // the VM's memory and every analyzer's table size
	ctx   context.Context
	scope *telemetry.Registry // nil: telemetry off
	// progress, when non-nil, receives one line per stage.
	progress  io.Writer
	store     string // trace-store directory; "" runs uncached
	stepLimit int64
	watchdog  time.Duration
	// faults arms a VM trap on both passes and replay faults on the
	// live replay, and forbids populating the store.
	faults *faultinject.Plan
	// upload, when non-nil, is a recorded trace that replaces the VM on
	// both passes; it never touches the store, whose key it could not
	// be derived from.
	upload []byte
	// invalid, when non-nil, is the error a program the predecoder
	// rejects wraps (ErrBadJob for service jobs).
	invalid error
	// dyn, when non-nil, is also trained by the profile pass, for the
	// "dynamic" predictor.
	dyn *predict.DynamicProfile

	// Set by profile.
	machine *vm.VM
	prof    *predict.Profile
	// meta holds the profile statistics, or on a warm replay the
	// stored sidecar's.
	meta storeMeta
}

// benchPass compiles suite benchmark b at opt's scale, with mopt and,
// when opt.Optimize is set, through the optimizer, and returns the pass
// that analyzes it under opt.
func benchPass(b bench.Benchmark, opt Options, mopt minic.Options) (*pass, error) {
	p := &pass{
		name: b.Name, ctx: opt.ctx(), scope: opt.Metrics.WithPrefix("bench." + b.Name + "."),
		progress: opt.Progress, store: opt.TraceStore, stepLimit: opt.StepLimit, watchdog: opt.Watchdog,
	}
	if opt.Faults != nil {
		p.faults = opt.Faults(b.Name)
	}
	p.logf("compiling (scale %d)", opt.Scale)
	if err := p.compile(b.Source(opt.Scale), "", mopt, opt.Optimize); err != nil {
		return nil, fmt.Errorf("%s: %w", b.Name, err)
	}
	p.words = vm.MemWords(p.prog, opt.MemWords)
	return p, nil
}

// compile sets the pass's program: mini-C source compiled with mopt,
// or else asmText as given, assembled and, when optimize is set, run
// through the optimizer.
func (p *pass) compile(source, asmText string, mopt minic.Options, optimize bool) error {
	done := stageTimer(p.scope, "compile")
	var err error
	if source != "" {
		asmText, err = minic.CompileOpts(source, mopt)
	}
	if err == nil {
		p.prog, err = asm.Assemble(asmText)
	}
	done()
	if err == nil && optimize {
		p.logf("optimizing")
		done := stageTimer(p.scope, "optimize")
		var or *optimizer.Result
		if or, err = optimizer.Optimize(p.prog); err == nil {
			p.prog = or.Program
		}
		done()
	}
	return err
}

// logf writes one progress line under the pass's name.
func (p *pass) logf(format string, args ...interface{}) {
	if p.progress != nil {
		fmt.Fprintf(p.progress, "[%s] "+format+"\n", append([]interface{}{p.name}, args...)...)
	}
}

// run replays the program's trace once through the analyzers build
// makes and hands them to check, which tallies their results and
// returns an error to reject them.  build gets one Static of the
// program per predictor named in predictors ("profile", "dynamic" or
// "btfn"), in order, and may be called twice: a stored trace is tried
// first with placeholder predictors, and when it cannot serve the
// results, the program is profiled and build makes fresh analyzers for
// the live replay.  The pass releases its VM before run returns.
func (p *pass) run(predictors []string, build func([]*limits.Static) []*limits.Analyzer, check func() error) error {
	defer p.release()
	if p.store != "" && p.upload == nil {
		if hit, err := p.cached(predictors, build, check); hit || err != nil {
			return err
		}
	}
	if err := p.profile(); err != nil {
		return err
	}
	sts, err := p.statics(predictors, false)
	if err != nil {
		if p.invalid != nil {
			return fmt.Errorf("%w: %v", p.invalid, err)
		}
		return fmt.Errorf("%s: %w", p.name, err)
	}
	return p.live(predictors, sts[0], build(sts), check)
}

// release frees the VM's memory image.
func (p *pass) release() {
	if p.machine != nil {
		p.machine.Release()
		p.machine = nil
	}
}

// profile runs the program once, on the VM or over the uploaded
// recording (vetting every event), to train the predictors and count
// the statistics of the sidecar.  A profiled pass does not profile
// again.
func (p *pass) profile() error {
	if p.prof != nil {
		return nil
	}
	prof := predict.NewProfile(p.prog)
	execs := make([]int64, len(p.prog.Instrs))
	record := func(ev vm.Event) { prof.Record(ev); execs[ev.Idx]++ }
	if dyn := p.dyn; dyn != nil {
		record = func(ev vm.Event) { prof.Record(ev); dyn.Record(ev); execs[ev.Idx]++ }
	}
	p.logf("profiling")
	done := stageTimer(p.scope, "profile")
	var err error
	if p.upload != nil {
		if err = replayTrace(p.ctx, p.upload, traceEventCheck(p.prog, p.words), record); err != nil {
			err = fmt.Errorf("%s: profile replay: %w", p.name, err)
		}
	} else {
		p.machine = vm.NewSized(p.prog, p.words)
		p.machine.StepLimit = p.stepLimit
		p.machine.Metrics = p.scope.WithPrefix("vm.profile.")
		if p.faults != nil {
			p.machine.StepHook = p.faults.StepHook()
		}
		if err = p.machine.RunContext(p.ctx, record); err != nil {
			err = fmt.Errorf("%s: profile run: %w", p.name, err)
		}
	}
	done()
	if err != nil {
		p.release()
		return err
	}
	p.prof = prof
	p.meta = storeMeta{PredictionRate: prof.Stats().Rate()}
	inline := trace.InlineMarks(p.prog)
	for i, n := range execs {
		p.meta.Steps += n
		if !inline[i] {
			p.meta.TraceInstructions += n
			if p.prog.Instrs[i].Op.IsCondBranch() {
				p.meta.DynamicCondBr += n
			}
		}
	}
	return nil
}

// statics pre-decodes the program once per predictor named in
// predictors: the CFG/RDF construction plus the per-instruction table
// every analyzer and the annotation pass consume (see
// limits/predecode.go).  A warm replay gets placeholder predictors.
func (p *pass) statics(predictors []string, warm bool) ([]*limits.Static, error) {
	defer stageTimer(p.scope, "predecode")()
	var sts []*limits.Static
	for _, name := range predictors {
		// A warm replay's stored lane bits carry every misprediction.
		var pred predict.Oracle = cachedOracle{p.name}
		switch {
		case warm:
		case name == "profile":
			pred = p.prof.Predictor()
		case name == "dynamic":
			pred = p.dyn.Outcomes()
		case name == "btfn":
			pred = predict.BTFN(p.prog)
		default:
			return nil, fmt.Errorf("unknown predictor %q", name)
		}
		st, err := limits.NewStatic(p.prog, pred)
		if err != nil {
			return nil, err
		}
		sts = append(sts, st)
	}
	return sts, nil
}

// key is the store key of a replay of the analyzers over st's
// annotation, with predictor lanes for predictors.  The key names no
// analyzer: a trace is a property of (program, annotation, predictor
// lanes), so one entry of a benchmark serves the suite and every study
// whose analyzers map to the same lanes.  Service jobs, all named
// "job", share entries only with each other.
func (p *pass) key(predictors []string, st *limits.Static, analyzers []*limits.Analyzer) tracestore.Key {
	return tracestore.Key{
		Bench:      p.name,
		ProgramCRC: tracestore.ProgramCRC(p.prog),
		Annotation: st.AnnotationFingerprint(),
		Predictors: strings.Join(predictors, ","),
		Lanes:      limits.AssignReplayLanes(analyzers...),
	}
}

// cached serves run from the trace store and reports whether it did.
// Every cache problem returns (false, nil), so that run traces live;
// the only error is the caller's own failure mid-replay
// (cancellation).
func (p *pass) cached(predictors []string, build func([]*limits.Static) []*limits.Analyzer, check func() error) (hit bool, err error) {
	store, err := tracestore.Open(iofault.OS(), p.store)
	if err != nil {
		p.logf("trace cache: %v; running live", err)
		return false, nil
	}
	defer func() {
		if r := recover(); r != nil {
			p.scope.Counter("store.fallbacks").Inc()
			p.logf("trace cache: replay panic (%v); running live", r)
			hit, err = false, nil
		}
	}()
	sts, err := p.statics(predictors, true)
	if err != nil {
		// The live pass fails identically; let it report the error.
		return false, nil
	}
	analyzers := build(sts)
	rep, err := store.Open(p.key(predictors, sts[0], analyzers))
	if errors.Is(err, tracestore.ErrMiss) {
		p.scope.Counter("store.misses").Inc()
		p.logf("trace cache: miss; tracing live")
		return false, nil
	}
	var sm storeMeta
	if err == nil {
		defer rep.Close()
		if err = json.Unmarshal(rep.Meta(), &sm); err != nil {
			err = fmt.Errorf("bad sidecar (%v)", err)
		}
	}
	if err != nil {
		p.scope.Counter("store.fallbacks").Inc()
		p.logf("trace cache: %v; running live", err)
		return false, nil
	}
	p.meta = sm
	p.logf("analyzing %d instructions through %d analyzer(s) (cached trace, %d frames)",
		sm.Steps, len(analyzers), rep.Frames())
	done := stageTimer(p.scope, "analyze")
	err = rep.Run(p.ctx, false, analyzers...)
	done()
	if err != nil {
		// Every frame was CRC-validated at Open, so a mid-replay error
		// is the caller's own — cancellation — and aborts like a live
		// run instead of falling back.
		return false, fmt.Errorf("%s: analysis run: %w", p.name, err)
	}
	if err := check(); err != nil {
		// A CRC-valid trace whose results are rejected is not
		// trustworthy; the live run rebuilds fresh analyzers and either
		// succeeds or fails honestly.
		p.scope.Counter("store.fallbacks").Inc()
		p.logf("trace cache: cached replay rejected (%v); running live", err)
		return false, nil
	}
	p.scope.Counter("store.hits").Inc()
	return true, nil
}

// live replays the trace through the analyzers from a second VM run
// (or the uploaded recording) and checks the results.  With a store
// and no fault plan, the annotated chunks are written through as they
// go and committed once check has accepted the results.
func (p *pass) live(predictors []string, st *limits.Static, analyzers []*limits.Analyzer, check func() error) error {
	run := func(ctx context.Context, visit func(vm.Event)) error {
		return replayTrace(ctx, p.upload, nil, visit)
	}
	if p.upload == nil {
		p.machine.Reset()
		p.machine.Metrics = p.scope.WithPrefix("vm.analysis.")
		run = p.machine.RunContext
	}
	// One replay annotates each event once for every analyzer and fans
	// the chunks out to one fused set per shared Static and unroll
	// setting.  Under a fault plan's consumer hooks every analyzer is a
	// consumer of its own, and consumer ids follow analyzer order.
	ropt := limits.ReplayOptions{Metrics: p.scope, Watchdog: p.watchdog}
	if p.faults != nil {
		ropt.Hooks = p.faults.Hooks()
	}
	pop := p.populate(predictors, st, analyzers)
	if pop != nil {
		ropt.Sink = pop.Sink()
	}
	p.logf("analyzing %d instructions through %d analyzer(s)", p.meta.Steps, len(analyzers))
	done := stageTimer(p.scope, "analyze")
	err := limits.ReplayWith(p.ctx, ropt, run, analyzers...)
	done()
	if err != nil {
		err = fmt.Errorf("analysis run: %w", err)
	} else {
		err = check()
	}
	if err != nil {
		if pop != nil {
			pop.Abort()
		}
		return fmt.Errorf("%s: %w", p.name, err)
	}
	if pop == nil {
		return nil
	}
	// A failed commit costs the cache entry, never the run.
	if err := pop.Commit(); err != nil {
		p.scope.Counter("store.populate_errors").Inc()
		p.logf("trace cache: populate failed: %v (continuing)", err)
	} else {
		p.scope.Counter("store.populates").Inc()
		p.logf("trace cache: stored %d annotated events", pop.Events())
	}
	return nil
}

// populate starts the live replay's write-through, or returns nil when
// the pass must not populate (no store, a fault plan that may mutate
// chunks in flight, an uploaded trace) or the store is unusable: a run
// never fails because its cache could not be written.
func (p *pass) populate(predictors []string, st *limits.Static, analyzers []*limits.Analyzer) *tracestore.Populate {
	if p.store == "" || p.faults != nil || p.upload != nil {
		return nil
	}
	store, err := tracestore.Open(iofault.OS(), p.store)
	var pop *tracestore.Populate
	if err == nil {
		var meta []byte
		if meta, err = json.Marshal(p.meta); err == nil {
			pop, err = store.BeginPopulate(p.key(predictors, st, analyzers), meta)
		}
	}
	if err != nil {
		p.scope.Counter("store.populate_errors").Inc()
		p.logf("trace cache: %v; not populating", err)
	}
	return pop
}
