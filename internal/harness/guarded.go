package harness

import (
	"fmt"

	"ilplimit/internal/limits"
	"ilplimit/internal/minic"
	"ilplimit/internal/stats"
)

// GuardedRow compares one benchmark compiled with and without guarded
// instructions (if-conversion), the architectural direction the paper's
// §6 identifies: "guarded instructions ... help increase the distance
// between mispredicted branches."
type GuardedRow struct {
	Name string
	// MeanDistance is the average misprediction distance on the SP machine
	// (instructions per misprediction segment).
	BaseMeanDistance    float64
	GuardedMeanDistance float64
	// Parallelism per model.
	BasePar    map[limits.Model]float64
	GuardedPar map[limits.Model]float64
}

// GuardedStudy holds the if-conversion comparison over the suite.
type GuardedStudy struct {
	Rows   []GuardedRow
	Models []limits.Model
}

// RunGuardedStudy compiles every benchmark twice — branches only, and with
// guarded-move if-conversion — and measures the speculative machines.
// The if-converted variant is a different program, so its ProgramCRC
// keys a trace-store entry of its own.
func RunGuardedStudy(opt Options) (*GuardedStudy, error) {
	opt = opt.withDefaults()
	models := []limits.Model{limits.SP, limits.SPCD, limits.SPCDMF}
	study := &GuardedStudy{Models: models}
	for _, b := range opt.Benchmarks {
		row := GuardedRow{Name: b.Name}
		for _, guarded := range []bool{false, true} {
			p, err := benchPass(b, opt, minic.Options{IfConvert: guarded})
			if err != nil {
				return nil, err
			}
			var g *limits.Group
			err = p.run([]string{"profile"}, func(sts []*limits.Static) []*limits.Analyzer {
				g = limits.NewGroup(sts[0], p.words, models, true)
				return g.Analyzers
			}, func() error {
				par, mean := groupPar(g), 0.0
				for _, r := range g.Results() {
					if r.Model == limits.SP && r.Segments != nil {
						var segs, instrs int64
						for d, agg := range r.Segments {
							segs += agg.Count
							instrs += d * agg.Count
						}
						if segs > 0 {
							mean = float64(instrs) / float64(segs)
						}
					}
				}
				if guarded {
					row.GuardedPar, row.GuardedMeanDistance = par, mean
				} else {
					row.BasePar, row.BaseMeanDistance = par, mean
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
		}
		study.Rows = append(study.Rows, row)
	}
	return study, nil
}

// Render formats the guarded-instruction study.
func (s *GuardedStudy) Render() string {
	t := &stats.Table{
		Title: "Study: guarded instructions (if-conversion) on the speculative machines",
		Headers: []string{"Program", "dist", "dist(guard)",
			"SP", "SP(guard)", "SP-CD", "SP-CD(guard)", "SP-CD-MF", "SP-CD-MF(guard)"},
	}
	for _, r := range s.Rows {
		t.AddRow(r.Name,
			fmt.Sprintf("%.0f", r.BaseMeanDistance),
			fmt.Sprintf("%.0f", r.GuardedMeanDistance),
			stats.FormatParallelism(r.BasePar[limits.SP]),
			stats.FormatParallelism(r.GuardedPar[limits.SP]),
			stats.FormatParallelism(r.BasePar[limits.SPCD]),
			stats.FormatParallelism(r.GuardedPar[limits.SPCD]),
			stats.FormatParallelism(r.BasePar[limits.SPCDMF]),
			stats.FormatParallelism(r.GuardedPar[limits.SPCDMF]))
	}
	return t.Render()
}
