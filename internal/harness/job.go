package harness

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"ilplimit/internal/isa"
	"ilplimit/internal/limits"
	"ilplimit/internal/minic"
	"ilplimit/internal/telemetry"
	"ilplimit/internal/trace"
	"ilplimit/internal/vm"
)

// JobSpec describes one analysis job, submitted through the service
// front door (cmd/ilplimitd) or by ilplimit.Measure: a program in
// exactly one input form — mini-C source, textual assembly, or an
// assembly/source pair with a pre-recorded v2 trace — analyzed under a
// model set.  It is the single-program sibling of Options, which
// configures whole-suite runs.
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
	// MemWords sizes the VM and dependence tables (default
	// DefaultMemWords), as vm.MemWords raises it; a trace job's tables
	// cover at least vm.DefaultMemWords.  The daemon never sets it.
	MemWords int
	// StepLimit bounds VM execution (default DefaultStepLimit); ignored
	// for trace jobs, whose length is fixed by the recording.  The
	// daemon never sets it.
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

// groupPar maps each of g's models to the parallelism it measured.
func groupPar(g *limits.Group) map[limits.Model]float64 {
	par := make(map[limits.Model]float64, len(g.Analyzers))
	for _, r := range g.Results() {
		par[r.Model] = r.Parallelism()
	}
	return par
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

// AnalyzeJob runs one service job through Measure and returns its
// matrix row.
func AnalyzeJob(ctx context.Context, spec JobSpec) (*JobResult, error) {
	results, err := Measure(ctx, spec)
	if err != nil {
		return nil, err
	}
	par := make(map[string]float64, len(results))
	for _, r := range results {
		par[r.Model.String()] = r.Parallelism()
	}
	return &JobResult{Rows: []MatrixRow{{Name: "program", Par: par}}}, nil
}

// Measure analyzes one program: compile (or assemble), profile, and
// schedule its trace under the requested models, returning the results
// in the order of spec.Models.  Analyzer panics are converted to errors
// exactly like a suite benchmark's (the program is the isolation unit),
// and the model-ordering invariant is enforced before results are
// reported.
func Measure(ctx context.Context, spec JobSpec) (res []limits.Result, err error) {
	defer isolate("job", &err)
	return measure(ctx, spec)
}

func measure(ctx context.Context, spec JobSpec) ([]limits.Result, error) {
	if spec.Models == nil {
		spec.Models = limits.AllModels()
	}
	if spec.MemWords == 0 {
		spec.MemWords = DefaultMemWords
	}
	if spec.StepLimit == 0 {
		spec.StepLimit = DefaultStepLimit
	}
	if ctx == nil {
		ctx = context.Background()
	}
	switch {
	case spec.Source != "" && spec.Asm != "":
		return nil, fmt.Errorf("%w: both source and assembly supplied", ErrBadJob)
	case spec.Source == "" && spec.Asm == "":
		return nil, fmt.Errorf("%w: no program supplied", ErrBadJob)
	}

	// A job result carries no profile statistics, only the models'
	// results, so a warm trace-store hit serves the whole job with no
	// VM pass.  A trace job replays the recording, vetting every event,
	// where an execution job runs the VM.
	p := &pass{
		name: "job", ctx: ctx, scope: spec.Metrics, store: spec.TraceStore,
		stepLimit: spec.StepLimit, watchdog: spec.Watchdog, upload: spec.Trace, invalid: ErrBadJob,
	}
	if err := p.compile(spec.Source, spec.Asm, minic.Options{}, spec.Optimize); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadJob, err)
	}
	// The analyzers cover the memory the VM gives the program, data
	// segment included.  A recording carries the addresses of the
	// machine that made it, and cmd/tracegen records on vm.New, so a
	// trace job covers at least vm.DefaultMemWords.  Dependences are
	// keyed by address equality and the tables are paged, so the larger
	// size changes no result.
	p.words = spec.MemWords
	if spec.Trace != nil {
		p.words = max(p.words, vm.DefaultMemWords)
	}
	p.words = vm.MemWords(p.prog, p.words)

	var group *limits.Group
	err := p.run([]string{"profile"}, func(sts []*limits.Static) []*limits.Analyzer {
		group = limits.NewGroup(sts[0], p.words, spec.Models, !spec.DisableUnrolling)
		return group.Analyzers
	}, func() error {
		if spec.DisableUnrolling {
			return checkOrdering(nil, groupPar(group))
		}
		return checkOrdering(groupPar(group), nil)
	})
	if err != nil {
		return nil, err
	}
	return group.Results(), nil
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
