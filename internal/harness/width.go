package harness

import (
	"fmt"
	"sort"

	"ilplimit/internal/limits"
	"ilplimit/internal/minic"
	"ilplimit/internal/stats"
)

// WidthRow reports the issue-width distribution of one benchmark under the
// SP-CD-MF machine: the paper ignores resource constraints, so this study
// asks how wide a machine would have to be to realize the limit.
type WidthRow struct {
	Name string
	// Widths maps per-cycle issue width to cycle count.
	Widths map[int64]int64
	// Instructions and Cycles give the overall parallelism context.
	Instructions int64
	Cycles       int64
}

// InstrCoverage returns the fraction of instructions that issue in cycles
// of width <= w.
func (r *WidthRow) InstrCoverage(w int64) float64 {
	var within, total int64
	for width, cycles := range r.Widths {
		total += width * cycles
		if width <= w {
			within += width * cycles
		}
	}
	if total == 0 {
		return 0
	}
	return float64(within) / float64(total)
}

// MaxWidth returns the largest observed issue width.
func (r *WidthRow) MaxWidth() int64 {
	var max int64
	for w := range r.Widths {
		if w > max {
			max = w
		}
	}
	return max
}

// WidthStudy aggregates the issue-width analysis over the suite.
type WidthStudy struct {
	Rows []WidthRow
}

// RunWidthStudy measures per-cycle issue widths for the SP-CD-MF machine.
func RunWidthStudy(opt Options) (*WidthStudy, error) {
	opt = opt.withDefaults()
	study := &WidthStudy{}
	for _, b := range opt.Benchmarks {
		p, err := benchPass(b, opt, minic.Options{})
		if err != nil {
			return nil, err
		}
		var a *limits.Analyzer
		var row WidthRow
		err = p.run([]string{"profile"}, func(sts []*limits.Static) []*limits.Analyzer {
			a = limits.NewAnalyzerConfig(sts[0], limits.Config{
				Model: limits.SPCDMF, Unrolling: true, MemWords: p.words, TrackWidths: true,
			})
			return []*limits.Analyzer{a}
		}, func() error {
			r := a.Result()
			row = WidthRow{
				Name:         b.Name,
				Widths:       r.Widths,
				Instructions: r.Instructions,
				Cycles:       r.Cycles,
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

// Render formats the width study: what fraction of the scheduled
// instructions fit in machines of various widths.
func (s *WidthStudy) Render() string {
	widths := []int64{4, 8, 16, 64, 256, 1024}
	headers := []string{"Program", "parallelism"}
	for _, w := range widths {
		headers = append(headers, fmt.Sprintf("<=%d-wide", w))
	}
	headers = append(headers, "max width")
	t := &stats.Table{
		Title:   "Study: SP-CD-MF issue-width demand (fraction of instructions issuing in cycles of width <= W)",
		Headers: headers,
	}
	for i := range s.Rows {
		r := &s.Rows[i]
		par := 0.0
		if r.Cycles > 0 {
			par = float64(r.Instructions) / float64(r.Cycles)
		}
		row := []string{r.Name, stats.FormatParallelism(par)}
		for _, w := range widths {
			row = append(row, fmt.Sprintf("%.0f%%", 100*r.InstrCoverage(w)))
		}
		row = append(row, fmt.Sprintf("%d", r.MaxWidth()))
		t.AddRow(row...)
	}
	return t.Render()
}

// sortedWidths lists a row's observed widths in ascending order (used by
// tests and detailed reports).
func (r *WidthRow) sortedWidths() []int64 {
	var ws []int64
	for w := range r.Widths {
		ws = append(ws, w)
	}
	sort.Slice(ws, func(i, j int) bool { return ws[i] < ws[j] })
	return ws
}
