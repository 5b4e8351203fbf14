package trace

import "ilplimit/internal/isa"

// InlineMarks returns, per instruction, whether the perfect-inlining filter
// removes it: procedure calls, returns and stack-pointer manipulation.
func InlineMarks(p *isa.Program) []bool {
	marks := make([]bool, len(p.Instrs))
	for i := range p.Instrs {
		in := &p.Instrs[i]
		if in.Op.IsCall() || in.Op.IsReturn() {
			marks[i] = true
			continue
		}
		if d, ok := in.DestReg(); ok && d == isa.RSP {
			marks[i] = true
		}
	}
	return marks
}

// Filter bundles the per-instruction removal decisions of both trace
// filters, for code that filters a trace without building a
// limits.Static: the analyzers read both from Static's fused table, and
// the harness's profile pass counts with InlineMarks.
type Filter struct {
	inline []bool
	unroll []bool // nil when perfect unrolling is disabled
}

// NewFilter builds a filter for the program. unrollMarks may be nil to
// disable the perfect-unrolling transformation.
func NewFilter(p *isa.Program, unrollMarks []bool) *Filter {
	return &Filter{inline: InlineMarks(p), unroll: unrollMarks}
}

// Ignored reports whether the instruction at static index idx is removed
// from the trace.
func (f *Filter) Ignored(idx int32) bool {
	if f.inline[idx] {
		return true
	}
	return f.unroll != nil && f.unroll[idx]
}
