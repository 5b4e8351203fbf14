package harness

import (
	"fmt"

	"ilplimit/internal/asm"
	"ilplimit/internal/bench"
	"ilplimit/internal/limits"
	"ilplimit/internal/minic"
	"ilplimit/internal/predict"
	"ilplimit/internal/stats"
	"ilplimit/internal/vm"
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
func RunGuardedStudy(opt Options) (*GuardedStudy, error) {
	opt = opt.withDefaults()
	models := []limits.Model{limits.SP, limits.SPCD, limits.SPCDMF}
	study := &GuardedStudy{Models: models}
	for _, b := range bench.All() {
		row := GuardedRow{Name: b.Name}
		for _, guarded := range []bool{false, true} {
			asmText, err := minic.CompileOpts(b.Source(opt.Scale), minic.Options{IfConvert: guarded})
			if err != nil {
				return nil, fmt.Errorf("%s: %w", b.Name, err)
			}
			prog, err := asm.Assemble(asmText)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", b.Name, err)
			}
			machine := vm.NewSized(prog, opt.MemWords)
			machine.StepLimit = opt.StepLimit
			prof := predict.NewProfile(prog)
			if err := machine.RunContext(opt.ctx(), prof.Record); err != nil {
				machine.Release()
				return nil, fmt.Errorf("%s: profile: %w", b.Name, err)
			}
			st, err := limits.NewStatic(prog, prof.Predictor())
			if err != nil {
				machine.Release()
				return nil, err
			}
			machine.Reset()
			g := limits.NewGroup(st, len(machine.Mem), models, true)
			// The if-converted variant compiles a different program, so
			// its ProgramCRC keys a distinct cache entry automatically.
			err = runAnalyzers(opt, b.Name, "profile", prog, st, machine, g.Analyzers)
			machine.Release()
			if err != nil {
				return nil, fmt.Errorf("%s: analysis: %w", b.Name, err)
			}
			par := make(map[limits.Model]float64)
			mean := 0.0
			for _, r := range g.Results() {
				par[r.Model] = r.Parallelism()
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
