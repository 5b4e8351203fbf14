package harness

import (
	"fmt"

	"ilplimit/internal/limits"
	"ilplimit/internal/minic"
	"ilplimit/internal/predict"
	"ilplimit/internal/stats"
)

// The studies in this file go beyond the paper's tables: they quantify the
// paper's side claims (dynamic prediction performs like profile-based
// static prediction, §2.1; the unbounded scheduling window and unit
// latencies make these limits larger than prior studies', §5) as ablations
// over the same pipeline.

// Study is one ablation study: the name ilplimit -study selects it by,
// and a runner that measures it over Options' suite and renders its
// table.
type Study struct {
	// Name selects the study.
	Name string
	// Run measures the study and returns its rendered table.
	Run func(Options) (string, error)
}

// Studies lists every study, in the order ilplimit names them.
var Studies = []Study{
	{"prediction", rendered(RunPredictionStudy)},
	{"window", rendered(RunWindowStudy)},
	{"latency", rendered(RunLatencyStudy)},
	{"guarded", rendered(RunGuardedStudy)},
	{"quality", rendered(RunQualityStudy)},
	{"width", rendered(RunWidthStudy)},
	{"scale", rendered(RunScaleStudy)},
}

// rendered adapts a study's Run function to Study.Run.
func rendered[S interface{ Render() string }](run func(Options) (S, error)) func(Options) (string, error) {
	return func(opt Options) (string, error) {
		s, err := run(opt)
		if err != nil {
			return "", err
		}
		return s.Render(), nil
	}
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
// static prediction, a 2-bit dynamic predictor, and BTFN.  Its rows
// report both predictors' hit rates, so it profiles even when the trace
// store holds the trace.
func RunPredictionStudy(opt Options) (*PredictionStudy, error) {
	opt = opt.withDefaults()
	models := []limits.Model{limits.SP, limits.SPCD, limits.SPCDMF}
	predictors := []string{"profile", "dynamic", "btfn"}
	study := &PredictionStudy{Models: models}
	for _, b := range opt.Benchmarks {
		p, err := benchPass(b, opt, minic.Options{})
		if err != nil {
			return nil, err
		}
		p.dyn = predict.NewDynamicProfile(p.prog)
		if err := p.profile(); err != nil {
			return nil, err
		}
		row := PredictionRow{
			Name:        b.Name,
			StaticRate:  p.meta.PredictionRate,
			DynamicRate: p.dyn.Stats().Rate(),
			Par:         make(map[string]map[limits.Model]float64),
		}
		var groups []*limits.Group
		err = p.run(predictors, func(sts []*limits.Static) []*limits.Analyzer {
			groups = nil
			var analyzers []*limits.Analyzer
			for _, st := range sts {
				g := limits.NewGroup(st, p.words, models, true)
				groups = append(groups, g)
				analyzers = append(analyzers, g.Analyzers...)
			}
			return analyzers
		}, func() error {
			for i, name := range predictors {
				row.Par[name] = groupPar(groups[i])
			}
			return nil
		})
		if err != nil {
			return nil, err
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

// RunWindowStudy executes the window sweep over the suite.
func RunWindowStudy(opt Options) (*WindowStudy, error) {
	opt = opt.withDefaults()
	study := &WindowStudy{}
	for _, b := range opt.Benchmarks {
		p, err := benchPass(b, opt, minic.Options{})
		if err != nil {
			return nil, err
		}
		row := WindowRow{Name: b.Name, Par: make(map[int]float64)}
		var analyzers []*limits.Analyzer
		err = p.run([]string{"profile"}, func(sts []*limits.Static) []*limits.Analyzer {
			analyzers = nil
			for _, w := range WindowSizes {
				analyzers = append(analyzers, limits.NewAnalyzerConfig(sts[0], limits.Config{
					Model: limits.SPCDMF, Unrolling: true, MemWords: p.words, Window: w,
				}))
			}
			return analyzers
		}, func() error {
			for i, w := range WindowSizes {
				row.Par[w] = analyzers[i].Result().Parallelism()
			}
			return nil
		})
		if err != nil {
			return nil, err
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
	for _, b := range opt.Benchmarks {
		p, err := benchPass(b, opt, minic.Options{})
		if err != nil {
			return nil, err
		}
		row := LatencyRow{
			Name:    b.Name,
			UnitPar: make(map[limits.Model]float64),
			RealPar: make(map[limits.Model]float64),
		}
		var analyzers []*limits.Analyzer
		err = p.run([]string{"profile"}, func(sts []*limits.Static) []*limits.Analyzer {
			analyzers = nil
			for _, m := range models {
				analyzers = append(analyzers, limits.NewAnalyzerConfig(sts[0], limits.Config{
					Model: m, Unrolling: true, MemWords: p.words,
				}))
				analyzers = append(analyzers, limits.NewAnalyzerConfig(sts[0], limits.Config{
					Model: m, Unrolling: true, MemWords: p.words,
					Latency: limits.DefaultLatencies,
				}))
			}
			return analyzers
		}, func() error {
			for i, m := range models {
				row.UnitPar[m] = analyzers[2*i].Result().Parallelism()
				row.RealPar[m] = analyzers[2*i+1].Result().Parallelism()
			}
			return nil
		})
		if err != nil {
			return nil, err
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
