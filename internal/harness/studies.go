package harness

import (
	"fmt"

	"ilplimit/internal/asm"
	"ilplimit/internal/bench"
	"ilplimit/internal/isa"
	"ilplimit/internal/limits"
	"ilplimit/internal/minic"
	"ilplimit/internal/predict"
	"ilplimit/internal/stats"
	"ilplimit/internal/vm"
)

// The studies in this file go beyond the paper's tables: they quantify the
// paper's side claims (dynamic prediction performs like profile-based
// static prediction, §2.1; the unbounded scheduling window and unit
// latencies make these limits larger than prior studies', §5) as ablations
// over the same pipeline.

// prepare compiles and profiles one benchmark, collecting both the static
// profile and the dynamic-predictor training in a single pass.  The
// caller releases the returned machine.
func prepare(b bench.Benchmark, opt Options) (*isa.Program, *vm.VM, *predict.Profile, *predict.DynamicProfile, error) {
	asmText, err := minic.Compile(b.Source(opt.Scale))
	if err != nil {
		return nil, nil, nil, nil, fmt.Errorf("%s: %w", b.Name, err)
	}
	prog, err := asm.Assemble(asmText)
	if err != nil {
		return nil, nil, nil, nil, fmt.Errorf("%s: %w", b.Name, err)
	}
	machine := vm.NewSized(prog, opt.MemWords)
	machine.StepLimit = opt.StepLimit
	static := predict.NewProfile(prog)
	dynamic := predict.NewDynamicProfile(prog)
	err = machine.RunContext(opt.ctx(), func(ev vm.Event) {
		static.Record(ev)
		dynamic.Record(ev)
	})
	if err != nil {
		machine.Release()
		return nil, nil, nil, nil, fmt.Errorf("%s: profile: %w", b.Name, err)
	}
	return prog, machine, static, dynamic, nil
}

// runAnalyzers replays the machine's trace through the analyzers under
// the run's context.  With a trace store configured, the replay is
// served from (or written through to) the store instead: name,
// predictors, prog and st identify the trace (see cachedStudyReplay);
// st must be a Static of prog shared by (or annotation-identical to)
// the analyzers'.
func runAnalyzers(opt Options, name, predictors string, prog *isa.Program, st *limits.Static,
	machine *vm.VM, analyzers []*limits.Analyzer) error {
	if opt.TraceStore != "" {
		if handled, err := cachedStudyReplay(opt, name, predictors, prog, st, machine, analyzers); handled {
			return err
		}
	}
	return limits.ReplayWith(opt.ctx(), limits.ReplayOptions{}, machine.RunContext, analyzers...)
}

// ---- Prediction study ----

// PredictionRow compares predictors on one benchmark.
type PredictionRow struct {
	Name        string
	StaticRate  float64
	DynamicRate float64
	// Par maps predictor name ("profile", "dynamic", "btfn") to model
	// parallelism for the speculative machines.
	Par map[string]map[limits.Model]float64
}

// PredictionStudy holds the study results.
type PredictionStudy struct {
	Rows   []PredictionRow
	Models []limits.Model
}

// RunPredictionStudy reruns the speculative machines under profile-based
// static prediction, a 2-bit dynamic predictor, and BTFN.
func RunPredictionStudy(opt Options) (*PredictionStudy, error) {
	opt = opt.withDefaults()
	models := []limits.Model{limits.SP, limits.SPCD, limits.SPCDMF}
	study := &PredictionStudy{Models: models}
	for _, b := range bench.All() {
		prog, machine, static, dynamic, err := prepare(b, opt)
		if err != nil {
			return nil, err
		}
		oracles := []struct {
			name string
			o    predict.Oracle
		}{
			{"profile", static.Predictor()},
			{"dynamic", dynamic.Outcomes()},
			{"btfn", predict.BTFN(prog)},
		}
		row := PredictionRow{
			Name:        b.Name,
			StaticRate:  static.Stats().Rate(),
			DynamicRate: dynamic.Stats().Rate(),
			Par:         make(map[string]map[limits.Model]float64),
		}
		var groups []*limits.Group
		var analyzers []*limits.Analyzer
		var firstSt *limits.Static
		for _, oc := range oracles {
			st, err := limits.NewStatic(prog, oc.o)
			if err != nil {
				machine.Release()
				return nil, err
			}
			if firstSt == nil {
				firstSt = st
			}
			g := limits.NewGroup(st, len(machine.Mem), models, true)
			groups = append(groups, g)
			analyzers = append(analyzers, g.Analyzers...)
		}
		machine.Reset()
		err = runAnalyzers(opt, b.Name, "profile,dynamic,btfn", prog, firstSt, machine, analyzers)
		machine.Release()
		if err != nil {
			return nil, fmt.Errorf("%s: analysis: %w", b.Name, err)
		}
		for i, oc := range oracles {
			par := make(map[limits.Model]float64)
			for _, r := range groups[i].Results() {
				par[r.Model] = r.Parallelism()
			}
			row.Par[oc.name] = par
		}
		study.Rows = append(study.Rows, row)
	}
	return study, nil
}

// Render formats the prediction study as a table.
func (s *PredictionStudy) Render() string {
	t := &stats.Table{
		Title: "Study: profile-based static vs 2-bit dynamic vs BTFN prediction",
		Headers: []string{"Program", "static%", "dynamic%",
			"SP(prof)", "SP(dyn)", "SP(btfn)",
			"SP-CD-MF(prof)", "SP-CD-MF(dyn)", "SP-CD-MF(btfn)"},
	}
	for _, r := range s.Rows {
		t.AddRow(r.Name,
			fmt.Sprintf("%.2f", r.StaticRate),
			fmt.Sprintf("%.2f", r.DynamicRate),
			stats.FormatParallelism(r.Par["profile"][limits.SP]),
			stats.FormatParallelism(r.Par["dynamic"][limits.SP]),
			stats.FormatParallelism(r.Par["btfn"][limits.SP]),
			stats.FormatParallelism(r.Par["profile"][limits.SPCDMF]),
			stats.FormatParallelism(r.Par["dynamic"][limits.SPCDMF]),
			stats.FormatParallelism(r.Par["btfn"][limits.SPCDMF]))
	}
	return t.Render()
}

// ---- Window study ----

// WindowSizes are the scheduling-window sizes the study sweeps
// (0 = unbounded, the paper's assumption).
var WindowSizes = []int{16, 64, 256, 1024, 4096, 0}

// WindowRow reports parallelism per window size for one benchmark.
type WindowRow struct {
	Name string
	// Par[windowSize] for the SP-CD-MF machine.
	Par map[int]float64
}

// WindowStudy sweeps the scheduling window for the SP-CD-MF machine,
// quantifying how much of the limit comes from the unbounded window.
type WindowStudy struct {
	Rows []WindowRow
}

// RunWindowStudy executes the window sweep over the whole suite.
func RunWindowStudy(opt Options) (*WindowStudy, error) {
	opt = opt.withDefaults()
	study := &WindowStudy{}
	for _, b := range bench.All() {
		prog, machine, static, _, err := prepare(b, opt)
		if err != nil {
			return nil, err
		}
		st, err := limits.NewStatic(prog, static.Predictor())
		if err != nil {
			machine.Release()
			return nil, err
		}
		var analyzers []*limits.Analyzer
		for _, w := range WindowSizes {
			analyzers = append(analyzers, limits.NewAnalyzerConfig(st, limits.Config{
				Model: limits.SPCDMF, Unrolling: true,
				MemWords: len(machine.Mem), Window: w,
			}))
		}
		machine.Reset()
		err = runAnalyzers(opt, b.Name, "profile", prog, st, machine, analyzers)
		machine.Release()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", b.Name, err)
		}
		row := WindowRow{Name: b.Name, Par: make(map[int]float64)}
		for i, w := range WindowSizes {
			row.Par[w] = analyzers[i].Result().Parallelism()
		}
		study.Rows = append(study.Rows, row)
	}
	return study, nil
}

// Render formats the window study.
func (s *WindowStudy) Render() string {
	headers := []string{"Program"}
	for _, w := range WindowSizes {
		if w == 0 {
			headers = append(headers, "unbounded")
		} else {
			headers = append(headers, fmt.Sprintf("W=%d", w))
		}
	}
	t := &stats.Table{
		Title:   "Study: SP-CD-MF parallelism vs scheduling-window size",
		Headers: headers,
	}
	for _, r := range s.Rows {
		row := []string{r.Name}
		for _, w := range WindowSizes {
			row = append(row, stats.FormatParallelism(r.Par[w]))
		}
		t.AddRow(row...)
	}
	return t.Render()
}

// ---- Latency study ----

// LatencyRow compares unit-latency parallelism with realistic-latency
// speedup for one benchmark.
type LatencyRow struct {
	Name string
	// UnitPar and RealPar index by model.
	UnitPar map[limits.Model]float64
	RealPar map[limits.Model]float64
}

// LatencyStudy quantifies how much measured "speedup" under realistic
// latencies understates unit-latency parallelism (paper §5: non-unit
// latencies consume parallelism to fill pipeline bubbles).
type LatencyStudy struct {
	Rows   []LatencyRow
	Models []limits.Model
}

// RunLatencyStudy executes the latency comparison.
func RunLatencyStudy(opt Options) (*LatencyStudy, error) {
	opt = opt.withDefaults()
	models := []limits.Model{limits.Base, limits.SP, limits.SPCDMF, limits.Oracle}
	study := &LatencyStudy{Models: models}
	for _, b := range bench.All() {
		prog, machine, static, _, err := prepare(b, opt)
		if err != nil {
			return nil, err
		}
		st, err := limits.NewStatic(prog, static.Predictor())
		if err != nil {
			machine.Release()
			return nil, err
		}
		var analyzers []*limits.Analyzer
		for _, m := range models {
			analyzers = append(analyzers, limits.NewAnalyzerConfig(st, limits.Config{
				Model: m, Unrolling: true, MemWords: len(machine.Mem),
			}))
			analyzers = append(analyzers, limits.NewAnalyzerConfig(st, limits.Config{
				Model: m, Unrolling: true, MemWords: len(machine.Mem),
				Latency: limits.DefaultLatencies,
			}))
		}
		machine.Reset()
		err = runAnalyzers(opt, b.Name, "profile", prog, st, machine, analyzers)
		machine.Release()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", b.Name, err)
		}
		row := LatencyRow{
			Name:    b.Name,
			UnitPar: make(map[limits.Model]float64),
			RealPar: make(map[limits.Model]float64),
		}
		for i, m := range models {
			row.UnitPar[m] = analyzers[2*i].Result().Parallelism()
			row.RealPar[m] = analyzers[2*i+1].Result().Parallelism()
		}
		study.Rows = append(study.Rows, row)
	}
	return study, nil
}

// Render formats the latency study.
func (s *LatencyStudy) Render() string {
	headers := []string{"Program"}
	for _, m := range s.Models {
		headers = append(headers, m.String()+"(unit)", m.String()+"(real)")
	}
	t := &stats.Table{
		Title:   "Study: unit-latency parallelism vs realistic-latency speedup",
		Headers: headers,
	}
	for _, r := range s.Rows {
		row := []string{r.Name}
		for _, m := range s.Models {
			row = append(row,
				stats.FormatParallelism(r.UnitPar[m]),
				stats.FormatParallelism(r.RealPar[m]))
		}
		t.AddRow(row...)
	}
	return t.Render()
}
