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

// VariantStudy is the table every study but the width study prints:
// per benchmark, a few statistics and each model's parallelism under
// each variant of the program, predictor or machine.
type VariantStudy struct {
	Title string
	// Models are the models measured, in column order.
	Models []limits.Model
	// Variants label the variants.  A column is named by its model plus
	// the label, or by the label alone when the study has one model.
	Variants []string
	// StatHeaders name the statistic columns, each printed with
	// StatFormat.
	StatHeaders []string
	StatFormat  string
	Rows        []VariantRow
}

// VariantRow is one benchmark's row of a VariantStudy.
type VariantRow struct {
	Name string
	// Stats holds one value per VariantStudy.StatHeaders entry.
	Stats []float64
	// Par[v][m] is model m's parallelism under variant v.
	Par []map[limits.Model]float64
}

// Render formats the study as a table: Program, the statistics, then
// one column per model and variant, variants nested in models.
func (s *VariantStudy) Render() string {
	t := &stats.Table{Title: s.Title, Headers: append([]string{"Program"}, s.StatHeaders...)}
	for _, m := range s.Models {
		for _, v := range s.Variants {
			if len(s.Models) > 1 {
				v = m.String() + v
			}
			t.Headers = append(t.Headers, v)
		}
	}
	for _, r := range s.Rows {
		row := []string{r.Name}
		for _, x := range r.Stats {
			row = append(row, fmt.Sprintf(s.StatFormat, x))
		}
		for _, m := range s.Models {
			for v := range s.Variants {
				row = append(row, stats.FormatParallelism(r.Par[v][m]))
			}
		}
		t.AddRow(row...)
	}
	return t.Render()
}

// sweep measures s over one replay of each benchmark's profiled trace,
// through one unrolled analyzer per model and variant; config sets
// variant v up in c.
func (s *VariantStudy) sweep(opt Options, config func(v int, c *limits.Config)) (*VariantStudy, error) {
	opt = opt.withDefaults()
	for _, b := range opt.Benchmarks {
		p, err := benchPass(b, opt, minic.Options{})
		if err != nil {
			return nil, err
		}
		row := VariantRow{Name: b.Name}
		var analyzers []*limits.Analyzer
		err = p.run([]string{"profile"}, func(sts []*limits.Static) []*limits.Analyzer {
			analyzers = nil
			for _, m := range s.Models {
				for v := range s.Variants {
					c := limits.Config{Model: m, Unrolling: true, MemWords: p.words}
					config(v, &c)
					analyzers = append(analyzers, limits.NewAnalyzerConfig(sts[0], c))
				}
			}
			return analyzers
		}, func() error {
			row.Par = make([]map[limits.Model]float64, len(s.Variants))
			for v := range row.Par {
				row.Par[v] = make(map[limits.Model]float64, len(s.Models))
			}
			for i, a := range analyzers {
				r := a.Result()
				row.Par[i%len(s.Variants)][r.Model] = r.Parallelism()
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		s.Rows = append(s.Rows, row)
	}
	return s, nil
}

// rerun measures s by running RunBenchmark on each benchmark once per
// variant, with set applying variant v to the options; a row's
// statistics are the variants' trace lengths.
func (s *VariantStudy) rerun(opt Options, set func(v int, o *Options)) (*VariantStudy, error) {
	opt = opt.withDefaults()
	for _, b := range opt.Benchmarks {
		row := VariantRow{Name: b.Name}
		for v := range s.Variants {
			o := opt
			o.Models = s.Models
			set(v, &o)
			r, err := RunBenchmark(b, o)
			if err != nil {
				return nil, err
			}
			row.Stats = append(row.Stats, float64(r.TraceInstructions))
			row.Par = append(row.Par, r.Par)
		}
		s.Rows = append(s.Rows, row)
	}
	return s, nil
}

// ---- Prediction study ----

// RunPredictionStudy reruns the speculative machines under profile-based
// static prediction, a 2-bit dynamic predictor, and BTFN.  Its rows
// report both predictors' hit rates, so it profiles even when the trace
// store holds the trace.
func RunPredictionStudy(opt Options) (*VariantStudy, error) {
	opt = opt.withDefaults()
	predictors := []string{"profile", "dynamic", "btfn"}
	study := &VariantStudy{
		Title:       "Study: profile-based static vs 2-bit dynamic vs BTFN prediction",
		Models:      []limits.Model{limits.SP, limits.SPCDMF},
		Variants:    []string{"(prof)", "(dyn)", "(btfn)"},
		StatHeaders: []string{"static%", "dynamic%"},
		StatFormat:  "%.2f",
	}
	for _, b := range opt.Benchmarks {
		p, err := benchPass(b, opt, minic.Options{})
		if err != nil {
			return nil, err
		}
		p.dyn = predict.NewDynamicProfile(p.prog)
		if err := p.profile(); err != nil {
			return nil, err
		}
		row := VariantRow{Name: b.Name, Stats: []float64{p.meta.PredictionRate, p.dyn.Stats().Rate()}}
		var groups []*limits.Group
		err = p.run(predictors, func(sts []*limits.Static) []*limits.Analyzer {
			groups = nil
			var analyzers []*limits.Analyzer
			for _, st := range sts {
				g := limits.NewGroup(st, p.words, study.Models, true)
				groups = append(groups, g)
				analyzers = append(analyzers, g.Analyzers...)
			}
			return analyzers
		}, func() error {
			row.Par = nil
			for _, g := range groups {
				row.Par = append(row.Par, groupPar(g))
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

// ---- Window study ----

// WindowSizes are the scheduling-window sizes the study sweeps
// (0 = unbounded, the paper's assumption).
var WindowSizes = []int{16, 64, 256, 1024, 4096, 0}

// RunWindowStudy sweeps the scheduling window for the SP-CD-MF machine,
// quantifying how much of the limit comes from the unbounded window;
// variant i is WindowSizes[i].
func RunWindowStudy(opt Options) (*VariantStudy, error) {
	study := &VariantStudy{
		Title:  "Study: SP-CD-MF parallelism vs scheduling-window size",
		Models: []limits.Model{limits.SPCDMF},
	}
	for _, w := range WindowSizes {
		label := "unbounded"
		if w != 0 {
			label = fmt.Sprintf("W=%d", w)
		}
		study.Variants = append(study.Variants, label)
	}
	return study.sweep(opt, func(v int, c *limits.Config) { c.Window = WindowSizes[v] })
}

// ---- Latency study ----

// RunLatencyStudy quantifies how much measured "speedup" under
// realistic latencies understates unit-latency parallelism (paper §5:
// non-unit latencies consume parallelism to fill pipeline bubbles).
func RunLatencyStudy(opt Options) (*VariantStudy, error) {
	study := &VariantStudy{
		Title:    "Study: unit-latency parallelism vs realistic-latency speedup",
		Models:   []limits.Model{limits.Base, limits.SP, limits.SPCDMF, limits.Oracle},
		Variants: []string{"(unit)", "(real)"},
	}
	return study.sweep(opt, func(v int, c *limits.Config) {
		if v == 1 {
			c.Latency = limits.DefaultLatencies
		}
	})
}
