package harness

import (
	"ilplimit/internal/limits"
	"ilplimit/internal/minic"
	"ilplimit/internal/tracestore"
)

// RunGuardedStudy compiles every benchmark twice — branches only, and with
// guarded-move if-conversion — and measures the speculative machines:
// guarded instructions are the architectural direction the paper's §6
// identifies ("guarded instructions ... help increase the distance
// between mispredicted branches").  Each variant's statistic is its
// mean misprediction distance on the SP machine (instructions per
// misprediction segment).  The if-converted variant is a different
// program, so its ProgramCRC keys a trace-store entry of its own; when
// if-conversion leaves the program unchanged (the same ProgramCRC), the
// guarded variant reuses the plain one's numbers instead of analyzing
// the same program again.
func RunGuardedStudy(opt Options) (*VariantStudy, error) {
	opt = opt.withDefaults()
	study := &VariantStudy{
		Title:       "Study: guarded instructions (if-conversion) on the speculative machines",
		Models:      []limits.Model{limits.SP, limits.SPCD, limits.SPCDMF},
		Variants:    []string{"", "(guard)"},
		StatHeaders: []string{"dist", "dist(guard)"},
		StatFormat:  "%.0f",
	}
	for _, b := range opt.Benchmarks {
		row := VariantRow{Name: b.Name}
		var plainCRC uint32
		for v := range study.Variants {
			p, err := benchPass(b, opt, minic.Options{IfConvert: v == 1})
			if err != nil {
				return nil, err
			}
			crc := tracestore.ProgramCRC(p.prog)
			if v == 1 && crc == plainCRC {
				row.Par = append(row.Par, row.Par[0])
				row.Stats = append(row.Stats, row.Stats[0])
				continue
			}
			plainCRC = crc
			var g *limits.Group
			var par map[limits.Model]float64
			var mean float64
			err = p.run([]string{"profile"}, func(sts []*limits.Static) []*limits.Analyzer {
				g = limits.NewGroup(sts[0], p.words, study.Models, true)
				return g.Analyzers
			}, func() error {
				par, mean = groupPar(g), 0
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
				return nil
			})
			if err != nil {
				return nil, err
			}
			row.Par = append(row.Par, par)
			row.Stats = append(row.Stats, mean)
		}
		study.Rows = append(study.Rows, row)
	}
	return study, nil
}
