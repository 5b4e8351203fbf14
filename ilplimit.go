package ilplimit

import (
	"context"
	"fmt"

	"ilplimit/internal/asm"
	"ilplimit/internal/bench"
	"ilplimit/internal/harness"
	"ilplimit/internal/limits"
	"ilplimit/internal/minic"
	"ilplimit/internal/opt"
	"ilplimit/internal/predict"
	"ilplimit/internal/telemetry"
	"ilplimit/internal/vm"
)

// MetricsRegistry re-exports the telemetry registry so Measure callers
// can opt into pipeline instrumentation without importing an internal
// package; NewMetricsRegistry constructs one.  A nil registry (the
// default) keeps every hot path on its nil-check fast path.
type MetricsRegistry = telemetry.Registry

// MetricsSnapshot is the immutable capture type returned by
// MetricsRegistry.Snapshot; SuiteResult and BenchResult embed it when a
// run collects telemetry.
type MetricsSnapshot = telemetry.Snapshot

// NewMetricsRegistry creates an empty metrics registry for
// MeasureOptions.Metrics / SuiteOptions.Metrics.
func NewMetricsRegistry() *MetricsRegistry { return telemetry.NewRegistry() }

// Model selects one of the paper's seven abstract machines.
type Model = limits.Model

// The seven machine models, in the paper's order.
const (
	Base   = limits.Base
	CD     = limits.CD
	CDMF   = limits.CDMF
	SP     = limits.SP
	SPCD   = limits.SPCD
	SPCDMF = limits.SPCDMF
	Oracle = limits.Oracle
)

// AllModels lists the seven machines in the paper's order.
func AllModels() []Model { return limits.AllModels() }

// Result reports one (program, machine model) analysis.
type Result = limits.Result

// ErrCanceled reports a run aborted by its context's cancellation or
// deadline; test with errors.Is.
var ErrCanceled = vm.ErrCanceled

// BenchFailure records one benchmark that errored or panicked during a
// suite run.
type BenchFailure = harness.BenchFailure

// SuiteError aggregates the failed benchmarks of a degraded suite run.
// RunSuite returns it (extract with errors.As) alongside the partial
// SuiteResult, so callers can render what survived.
type SuiteError = harness.SuiteError

// MeasureOptions configure Measure.
type MeasureOptions struct {
	// Context cancels or deadlines the measurement; Measure then returns
	// an error wrapping ErrCanceled.  Nil means context.Background().
	Context context.Context
	// Models restricts the analysis (default: all seven).
	Models []Model
	// PerfectUnrolling applies the paper's perfect-loop-unrolling trace
	// transformation (the main configuration of Table 3).  Default true.
	// Set DisableUnrolling to turn it off.
	DisableUnrolling bool
	// Optimize runs the post-codegen optimizer before analysis.
	Optimize bool
	// IfConvert enables guarded-instruction if-conversion in the compiler.
	IfConvert bool
	// MemWords sizes the simulated memory (default 1<<20 words).
	MemWords int
	// StepLimit bounds execution (default 1<<32 instructions).
	StepLimit int64
	// Metrics, when non-nil, collects pipeline telemetry (VM counters
	// under "vm.profile." / "vm.analysis.", replay-ring statistics under
	// "ring."); capture values with Metrics.Snapshot() after Measure
	// returns.  Nil (the default) disables all instrumentation at
	// nil-check cost.  See internal/telemetry and DESIGN.md §9.
	Metrics *telemetry.Registry
}

// Measure compiles a mini-C program, profiles its branches with the same
// input (the paper's static prediction upper bound), and schedules its
// trace under the requested machine models.  Results arrive in model
// order.
func Measure(source string, o MeasureOptions) ([]Result, error) {
	ctx := o.Context
	if ctx == nil {
		ctx = context.Background()
	}
	if o.Models == nil {
		o.Models = limits.AllModels()
	}
	if o.MemWords == 0 {
		o.MemWords = 1 << 20
	}
	if o.StepLimit == 0 {
		o.StepLimit = 1 << 32
	}
	asmText, err := minic.CompileOpts(source, minic.Options{IfConvert: o.IfConvert})
	if err != nil {
		return nil, err
	}
	prog, err := asm.Assemble(asmText)
	if err != nil {
		return nil, err
	}
	if o.Optimize {
		or, err := opt.Optimize(prog)
		if err != nil {
			return nil, err
		}
		prog = or.Program
	}
	machine := vm.NewSized(prog, o.MemWords)
	defer machine.Release()
	machine.StepLimit = o.StepLimit
	machine.Metrics = o.Metrics.WithPrefix("vm.profile.")
	prof := predict.NewProfile(prog)
	if err := machine.RunContext(ctx, prof.Record); err != nil {
		return nil, fmt.Errorf("profile run: %w", err)
	}
	st, err := limits.NewStatic(prog, prof.Predictor())
	if err != nil {
		return nil, err
	}
	machine.Reset()
	machine.Metrics = o.Metrics.WithPrefix("vm.analysis.")
	group := limits.NewGroup(st, len(machine.Mem), o.Models, !o.DisableUnrolling)
	err = limits.ReplayWith(ctx, limits.ReplayOptions{Metrics: o.Metrics}, machine.RunContext, group.Analyzers...)
	if err != nil {
		return nil, fmt.Errorf("analysis run: %w", err)
	}
	return group.Results(), nil
}

// Compile translates mini-C source to textual assembly for the study's
// MIPS-like ISA.
func Compile(source string) (string, error) { return minic.Compile(source) }

// Run compiles and executes a mini-C program, returning what it printed.
func Run(source string) (string, error) {
	asmText, err := minic.Compile(source)
	if err != nil {
		return "", err
	}
	prog, err := asm.Assemble(asmText)
	if err != nil {
		return "", err
	}
	machine := vm.New(prog)
	defer machine.Release()
	machine.StepLimit = 1 << 32
	if err := machine.Run(nil); err != nil {
		return "", err
	}
	return machine.Output(), nil
}

// SuiteOptions configure RunSuite.
type SuiteOptions = harness.Options

// SuiteResult aggregates the whole benchmark suite; its methods render the
// paper's tables and figures (Table2, Table3, Table4, Figure4…Figure7,
// Report).
type SuiteResult = harness.SuiteResult

// RunSuite reproduces the paper's experiments over the ten-benchmark
// suite.
func RunSuite(o SuiteOptions) (*SuiteResult, error) { return harness.RunSuite(o) }

// Table1 renders the paper's benchmark inventory.
func Table1() string { return harness.Table1() }

// BenchmarkNames lists the suite in the paper's Table 1 order.
func BenchmarkNames() []string {
	var names []string
	for _, b := range bench.All() {
		names = append(names, b.Name)
	}
	return names
}

// BenchmarkSource returns a suite benchmark's generated mini-C source at
// the given scale (>= 1).
func BenchmarkSource(name string, scale int) (string, error) {
	b, err := bench.ByName(name)
	if err != nil {
		return "", err
	}
	return b.Source(scale), nil
}
