package harness

import (
	"fmt"

	"ilplimit/internal/limits"
	"ilplimit/internal/stats"
)

// QualityRow compares one benchmark's limits for the plain compiler output
// and the optimized code.
type QualityRow struct {
	Name string
	// PlainInstrs and OptInstrs are the scheduled trace lengths.
	PlainInstrs int64
	OptInstrs   int64
	PlainPar    map[limits.Model]float64
	OptPar      map[limits.Model]float64
}

// QualityStudy quantifies how compiler quality moves the measured limits —
// limit studies are statements about *the code the compiler generated*
// (paper §4.2: "this experiment only establishes the limits of parallelism
// for the particular code generated by the compiler").
type QualityStudy struct {
	Rows   []QualityRow
	Models []limits.Model
}

// RunQualityStudy runs the pipeline with and without the internal/opt
// optimizer.
func RunQualityStudy(opt Options) (*QualityStudy, error) {
	opt = opt.withDefaults()
	models := []limits.Model{limits.Base, limits.SP, limits.SPCDMF, limits.Oracle}
	study := &QualityStudy{Models: models}
	for _, b := range opt.Benchmarks {
		row := QualityRow{Name: b.Name}
		for _, optimized := range []bool{false, true} {
			o := opt
			o.Models = models
			o.Optimize = optimized
			r, err := RunBenchmark(b, o)
			if err != nil {
				return nil, err
			}
			par := make(map[limits.Model]float64, len(models))
			for _, m := range models {
				par[m] = r.Par[m]
			}
			if optimized {
				row.OptPar, row.OptInstrs = par, r.TraceInstructions
			} else {
				row.PlainPar, row.PlainInstrs = par, r.TraceInstructions
			}
		}
		study.Rows = append(study.Rows, row)
	}
	return study, nil
}

// Render formats the study.
func (s *QualityStudy) Render() string {
	headers := []string{"Program", "instrs", "instrs(-O)"}
	for _, m := range s.Models {
		headers = append(headers, m.String(), m.String()+"(-O)")
	}
	t := &stats.Table{
		Title:   "Study: compiler quality (plain vs optimized code)",
		Headers: headers,
	}
	for _, r := range s.Rows {
		row := []string{r.Name,
			fmt.Sprintf("%d", r.PlainInstrs),
			fmt.Sprintf("%d", r.OptInstrs)}
		for _, m := range s.Models {
			row = append(row,
				stats.FormatParallelism(r.PlainPar[m]),
				stats.FormatParallelism(r.OptPar[m]))
		}
		t.AddRow(row...)
	}
	return t.Render()
}
