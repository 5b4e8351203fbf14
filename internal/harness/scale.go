package harness

import (
	"fmt"

	"ilplimit/internal/limits"
	"ilplimit/internal/stats"
)

// ScaleSweep lists the workload scales the scale study measures.
var ScaleSweep = []int{1, 2, 4}

// ScaleRow reports one benchmark's limits across workload scales.
type ScaleRow struct {
	Name string
	// Instructions[scale] is the scheduled trace length.
	Instructions map[int]int64
	// Par[scale][model] is the measured parallelism.
	Par map[int]map[limits.Model]float64
}

// ScaleStudy quantifies how the limits grow with trace length.  The paper
// traced up to 100M instructions; with an unbounded scheduling window the
// ORACLE limit of a parallel program grows roughly linearly with trace
// length, which is why this reproduction's absolute ORACLE values sit
// below the paper's (EXPERIMENTS.md, Table 3 deviation note).
type ScaleStudy struct {
	Rows   []ScaleRow
	Models []limits.Model
}

// RunScaleStudy measures ORACLE and SP-CD-MF at several workload scales.
func RunScaleStudy(opt Options) (*ScaleStudy, error) {
	opt = opt.withDefaults()
	models := []limits.Model{limits.SPCDMF, limits.Oracle}
	study := &ScaleStudy{Models: models}
	for _, b := range opt.Benchmarks {
		row := ScaleRow{
			Name:         b.Name,
			Instructions: make(map[int]int64),
			Par:          make(map[int]map[limits.Model]float64),
		}
		for _, scale := range ScaleSweep {
			o := opt
			o.Scale = scale
			o.Models = models
			r, err := RunBenchmark(b, o)
			if err != nil {
				return nil, err
			}
			row.Instructions[scale] = r.TraceInstructions
			par := make(map[limits.Model]float64, len(models))
			for _, m := range models {
				par[m] = r.Par[m]
			}
			row.Par[scale] = par
		}
		study.Rows = append(study.Rows, row)
	}
	return study, nil
}

// Render formats the scale study.
func (s *ScaleStudy) Render() string {
	headers := []string{"Program"}
	for _, sc := range ScaleSweep {
		headers = append(headers, fmt.Sprintf("instrs x%d", sc))
	}
	for _, m := range s.Models {
		for _, sc := range ScaleSweep {
			headers = append(headers, fmt.Sprintf("%s x%d", m, sc))
		}
	}
	t := &stats.Table{
		Title:   "Study: limits vs trace length (workload scale sweep)",
		Headers: headers,
	}
	for _, r := range s.Rows {
		row := []string{r.Name}
		for _, sc := range ScaleSweep {
			row = append(row, fmt.Sprintf("%d", r.Instructions[sc]))
		}
		for _, m := range s.Models {
			for _, sc := range ScaleSweep {
				row = append(row, stats.FormatParallelism(r.Par[sc][m]))
			}
		}
		t.AddRow(row...)
	}
	return t.Render()
}
