package harness

import (
	"fmt"

	"ilplimit/internal/limits"
)

// ScaleSweep lists the workload scales the scale study measures.
var ScaleSweep = []int{1, 2, 4}

// RunScaleStudy measures ORACLE and SP-CD-MF at each workload scale of
// ScaleSweep, quantifying how the limits grow with trace length.  The
// paper traced up to 100M instructions; with an unbounded scheduling
// window the ORACLE limit of a parallel program grows roughly linearly
// with trace length, which is why this reproduction's absolute ORACLE
// values sit below the paper's (EXPERIMENTS.md, Table 3 deviation
// note).
func RunScaleStudy(opt Options) (*VariantStudy, error) {
	study := &VariantStudy{
		Title:      "Study: limits vs trace length (workload scale sweep)",
		Models:     []limits.Model{limits.SPCDMF, limits.Oracle},
		StatFormat: "%.0f",
	}
	for _, sc := range ScaleSweep {
		label := fmt.Sprintf(" x%d", sc)
		study.Variants = append(study.Variants, label)
		study.StatHeaders = append(study.StatHeaders, "instrs"+label)
	}
	return study.rerun(opt, func(v int, o *Options) { o.Scale = ScaleSweep[v] })
}
