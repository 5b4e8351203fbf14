package harness

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime/debug"
	"time"

	"ilplimit/internal/asm"
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

// JobSpec describes one analysis job submitted through the service
// front door (cmd/ilplimitd): a program in exactly one input form —
// mini-C source, textual assembly, or an assembly/source pair with a
// pre-recorded v2 trace — analyzed under a model set.  It is the
// single-program sibling of Options, which configures whole-suite runs.
type JobSpec struct {
	// Source is mini-C source text (exclusive with Asm).
	Source string
	// Asm is textual assembly for the study ISA (exclusive with Source).
	Asm string
	// Trace, when non-nil, is a recorded trace file (internal/trace
	// format) replayed through the analyzers instead of executing the
	// program on the VM.  The program (Source or Asm) is still required
	// for the static tables; the trace supplies the dynamic events for
	// both the profiling and the analysis pass.
	Trace []byte
	// Models restricts the analysis (default: all seven).
	Models []limits.Model
	// Optimize runs the post-codegen optimizer before analysis.
	Optimize bool
	// DisableUnrolling turns off the paper's perfect-loop-unrolling
	// transformation (on by default, matching Table 3's main config).
	DisableUnrolling bool
	// MemWords sizes the VM and dependence tables (default 1<<20), as
	// vm.MemWords raises it; a trace job's tables cover at least
	// vm.DefaultMemWords.
	MemWords int
	// StepLimit bounds VM execution (default 1<<32); ignored for trace
	// jobs, whose length is fixed by the recording.
	StepLimit int64
	// Watchdog arms the replay ring's per-consumer stall watchdog
	// (0 = off), exactly as Options.Watchdog does for suites.
	Watchdog time.Duration
	// TraceStore, when non-empty, is a persistent annotated trace store
	// directory (Options.TraceStore): a warm entry for this program and
	// model set replays zero-copy with no VM run, and a cold run writes
	// through.  Trace jobs ignore it — an uploaded recording is not
	// derivable from the program, so caching it under the program's key
	// could serve the wrong events to a later submission.
	TraceStore string
	// Metrics, when non-nil, collects pipeline telemetry for the job.
	Metrics *telemetry.Registry
}

// MatrixRow is one row of the service's model × benchmark parallelism
// matrix: a program (or suite benchmark) name and its per-model
// parallelism keyed by model name.  String keys keep the JSON encoding
// deterministic (maps marshal with sorted keys), which the daemon's
// byte-identical cache and durability guarantees rely on.
type MatrixRow struct {
	// Name identifies the row: a suite benchmark name, or "program" for
	// an ad-hoc submission.
	Name string `json:"name"`
	// Par maps model name ("BASE" … "ORACLE") to parallelism.
	Par map[string]float64 `json:"par"`
}

// JobResult is the outcome of one analysis job: the parallelism matrix
// rows in submission order.
type JobResult struct {
	// Rows holds one entry per analyzed program.
	Rows []MatrixRow `json:"rows"`
}

// ErrBadJob marks a job rejected before analysis started — no input
// program, both input forms at once, or an undecodable trace.  The
// daemon maps it (and compile/assemble failures) to a client error.
var ErrBadJob = errors.New("harness: invalid job")

// modelPar converts a per-model parallelism map to the string-keyed
// form MatrixRow carries.
func modelPar(par map[limits.Model]float64) map[string]float64 {
	out := make(map[string]float64, len(par))
	for m, p := range par {
		out[m.String()] = p
	}
	return out
}

// SuiteMatrix flattens a suite result into the service's matrix rows,
// one per surviving benchmark in suite order.
func SuiteMatrix(s *SuiteResult) *JobResult {
	jr := &JobResult{}
	for i := range s.Benchmarks {
		b := &s.Benchmarks[i]
		jr.Rows = append(jr.Rows, MatrixRow{Name: b.Name, Par: modelPar(b.Par)})
	}
	return jr
}

// AnalyzeJob runs one service job: compile (or assemble), profile,
// and schedule the program's trace under the requested models,
// returning its matrix row.  Analyzer panics are converted to errors
// exactly like a suite benchmark's (the job is the isolation unit), and
// the model-ordering invariant is enforced before results are reported.
func AnalyzeJob(ctx context.Context, spec JobSpec) (res *JobResult, err error) {
	defer func() {
		if p := recover(); p != nil {
			if pe, ok := p.(*limits.PanicError); ok {
				err = fmt.Errorf("job: %w\n%s", pe, pe.Stack)
				return
			}
			err = fmt.Errorf("job: panic: %v\n%s", p, debug.Stack())
		}
	}()
	return analyzeJob(ctx, spec)
}

func analyzeJob(ctx context.Context, spec JobSpec) (*JobResult, error) {
	if spec.Models == nil {
		spec.Models = limits.AllModels()
	}
	if spec.MemWords == 0 {
		spec.MemWords = 1 << 20
	}
	if spec.StepLimit == 0 {
		spec.StepLimit = 1 << 32
	}
	if ctx == nil {
		ctx = context.Background()
	}

	var asmText string
	switch {
	case spec.Source != "" && spec.Asm != "":
		return nil, fmt.Errorf("%w: both source and assembly supplied", ErrBadJob)
	case spec.Source != "":
		var err error
		if asmText, err = minic.Compile(spec.Source); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadJob, err)
		}
	case spec.Asm != "":
		asmText = spec.Asm
	default:
		return nil, fmt.Errorf("%w: no program supplied", ErrBadJob)
	}
	prog, err := asm.Assemble(asmText)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadJob, err)
	}
	if spec.Optimize {
		or, err := optimizer.Optimize(prog)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadJob, err)
		}
		prog = or.Program
	}

	// The analyzers cover the memory the VM gives the program, data
	// segment included.  A recording carries the addresses of the
	// machine that made it, and cmd/tracegen records on vm.New, so a
	// trace job covers at least vm.DefaultMemWords.  Dependences are
	// keyed by address equality and the tables are paged, so the larger
	// size changes no result.
	words := spec.MemWords
	if spec.Trace != nil {
		words = max(words, vm.DefaultMemWords)
	}
	words = vm.MemWords(prog, words)

	// A warm trace-store hit serves the whole job without a VM pass —
	// a job result carries no profile statistics, only the parallelism
	// matrix, so the stored annotated stream is everything it needs.
	if spec.TraceStore != "" && spec.Trace == nil {
		if res, err := cachedJob(ctx, spec, prog, words); err != nil || res != nil {
			return res, err
		}
	}

	// The profiling pass feeds the static predictor.  A trace job
	// replays the recording, vetting every event; an execution job runs
	// the VM.
	prof := predict.NewProfile(prog)
	var machine *vm.VM
	if spec.Trace != nil {
		if err := replayTrace(ctx, spec.Trace, traceEventCheck(prog, words), prof.Record); err != nil {
			return nil, fmt.Errorf("job: profile replay: %w", err)
		}
	} else {
		machine = vm.NewSized(prog, words)
		defer machine.Release()
		machine.StepLimit = spec.StepLimit
		machine.Metrics = spec.Metrics.WithPrefix("vm.profile.")
		if err := machine.RunContext(ctx, prof.Record); err != nil {
			return nil, fmt.Errorf("job: profile run: %w", err)
		}
	}

	st, err := limits.NewStatic(prog, prof.Predictor())
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadJob, err)
	}

	// Analysis pass: one replay fans annotated chunks out to all models.
	group := limits.NewGroup(st, words, spec.Models, !spec.DisableUnrolling)
	ropt := limits.ReplayOptions{Metrics: spec.Metrics, Watchdog: spec.Watchdog}
	var run limits.RunFunc
	var pop *tracestore.Populate
	if spec.Trace != nil {
		data := spec.Trace
		run = func(ctx context.Context, visit func(vm.Event)) error {
			return replayTrace(ctx, data, nil, visit)
		}
	} else {
		machine.Reset()
		machine.Metrics = spec.Metrics.WithPrefix("vm.analysis.")
		run = machine.RunContext
		if spec.TraceStore != "" {
			pop = beginJobPopulate(spec, prog, st, group.Analyzers)
			if pop != nil {
				ropt.Sink = pop.Sink()
			}
		}
	}
	if err := limits.ReplayWith(ctx, ropt, run, group.Analyzers...); err != nil {
		if pop != nil {
			pop.Abort()
		}
		return nil, fmt.Errorf("job: analysis run: %w", err)
	}

	par := make(map[limits.Model]float64, len(spec.Models))
	for _, r := range group.Results() {
		par[r.Model] = r.Parallelism()
	}
	if viol := limits.CheckOrdering(par, !spec.DisableUnrolling); len(viol) > 0 {
		if pop != nil {
			pop.Abort()
		}
		return nil, fmt.Errorf("job: %w", &limits.InvariantError{Violations: viol})
	}
	if pop != nil {
		// A failed commit costs the cache entry, never the job.
		_ = pop.Commit()
	}
	return &JobResult{Rows: []MatrixRow{{Name: "program", Par: modelPar(par)}}}, nil
}

// replayTrace streams a recorded trace file through visit, polling the
// context every 4096 events (the VM's cadence) so a deadline or cancel
// aborts a long replay promptly with an error wrapping vm.ErrCanceled.
// A non-nil check vets each event before visit sees it, and its error
// ends the replay.
func replayTrace(ctx context.Context, data []byte, check func(vm.Event) error, visit func(vm.Event)) error {
	tr, err := trace.NewReader(bytes.NewReader(data))
	if err != nil {
		return fmt.Errorf("%w: %v", ErrBadJob, err)
	}
	done := ctx.Done()
	for n := int64(0); ; n++ {
		if n&4095 == 0 && done != nil {
			select {
			case <-done:
				return fmt.Errorf("trace replay: %w (%v)", vm.ErrCanceled, ctx.Err())
			default:
			}
		}
		ev, err := tr.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("%w: %v", ErrBadJob, err)
		}
		if check != nil {
			if err := check(ev); err != nil {
				return err
			}
		}
		visit(ev)
	}
}

// traceEventCheck rejects, as ErrBadJob, an uploaded event that the
// predictor or the analyzers could not index: an instruction outside
// prog, a load or store address outside the words analyzed, or any
// other address too wide for a chunk lane.
func traceEventCheck(prog *isa.Program, words int) func(vm.Event) error {
	return func(ev vm.Event) error {
		if uint32(ev.Idx) >= uint32(len(prog.Instrs)) {
			return fmt.Errorf("%w: trace event %d: instruction %d outside the %d-instruction program",
				ErrBadJob, ev.Seq, ev.Idx, len(prog.Instrs))
		}
		limit := uint64(math.MaxUint32) + 1
		if op := prog.Instrs[ev.Idx].Op; op.IsLoad() || op.IsStore() {
			limit = uint64(words)
		}
		if uint64(ev.Addr) >= limit {
			return fmt.Errorf("%w: trace event %d: address %d outside [0, %d)", ErrBadJob, ev.Seq, ev.Addr, limit)
		}
		return nil
	}
}
