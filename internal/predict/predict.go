package predict

import (
	"ilplimit/internal/isa"
	"ilplimit/internal/vm"
)

// Profile accumulates per-static-branch outcome counts.
type Profile struct {
	prog     *isa.Program
	taken    []int64
	notTaken []int64
}

// NewProfile creates an empty profile for the program.
func NewProfile(p *isa.Program) *Profile {
	n := len(p.Instrs)
	return &Profile{prog: p, taken: make([]int64, n), notTaken: make([]int64, n)}
}

// Record notes one dynamic event; non-branch events are ignored, so the
// profiler can be used directly as a VM visitor.
func (pr *Profile) Record(ev vm.Event) {
	if !pr.prog.Instrs[ev.Idx].Op.IsCondBranch() {
		return
	}
	if ev.Taken {
		pr.taken[ev.Idx]++
	} else {
		pr.notTaken[ev.Idx]++
	}
}

// Branch kinds, as branchKinds classifies each instruction.
const (
	kindOther uint8 = iota // never mispredicted
	kindCond               // compare the outcome against the prediction
	kindJump               // computed jump: always mispredicted
)

// branchKinds classifies every instruction of the program once, so a
// misprediction query resolves an event's kind with one indexed load.
func branchKinds(p *isa.Program) []uint8 {
	kinds := make([]uint8, len(p.Instrs))
	for i := range p.Instrs {
		switch op := p.Instrs[i].Op; {
		case op.IsCondBranch():
			kinds[i] = kindCond
		case op.IsComputedJump():
			kinds[i] = kindJump
		}
	}
	return kinds
}

// Predictor holds the static majority-direction prediction for every
// conditional branch.
type Predictor struct {
	kinds       []uint8
	predictTake []bool
}

// Predictor freezes the profile into a static predictor.  Branches never
// executed during profiling predict not-taken.
func (pr *Profile) Predictor() *Predictor {
	p := &Predictor{kinds: branchKinds(pr.prog), predictTake: make([]bool, len(pr.taken))}
	for i := range pr.taken {
		p.predictTake[i] = pr.taken[i] > pr.notTaken[i]
	}
	return p
}

// NewStaticPredictor builds a predictor with explicit per-branch
// predictions: take maps a static instruction index to its predicted
// direction.  Branches absent from the map predict not-taken.  Useful for
// tests and what-if studies.
func NewStaticPredictor(p *isa.Program, take map[int]bool) *Predictor {
	pr := &Predictor{kinds: branchKinds(p), predictTake: make([]bool, len(p.Instrs))}
	for idx, t := range take {
		pr.predictTake[idx] = t
	}
	return pr
}

// Mispredicted reports whether the dynamic event ev was mispredicted.
// Conditional branches compare against the profile majority; computed
// jumps are always mispredicted; everything else is never mispredicted.
func (p *Predictor) Mispredicted(ev vm.Event) bool {
	switch p.kinds[ev.Idx] {
	case kindCond:
		return ev.Taken != p.predictTake[ev.Idx]
	case kindJump:
		return true
	}
	return false
}

// PredictsTaken reports the static prediction for the conditional branch at
// static index idx.
func (p *Predictor) PredictsTaken(idx int) bool { return p.predictTake[idx] }

// Stats summarizes a profile as the paper's Table 2 does.
type Stats struct {
	// CondBranches is the number of dynamic conditional branches profiled.
	CondBranches int64
	// Correct is how many of them the frozen predictor gets right.
	Correct int64
}

// Rate returns the prediction accuracy in percent (100 when no branches
// executed).
func (s Stats) Rate() float64 {
	if s.CondBranches == 0 {
		return 100
	}
	return 100 * float64(s.Correct) / float64(s.CondBranches)
}

// Stats evaluates the majority predictor against the profile itself,
// exactly the paper's definition of the static upper bound.
func (pr *Profile) Stats() Stats {
	var s Stats
	for i := range pr.taken {
		t, n := pr.taken[i], pr.notTaken[i]
		s.CondBranches += t + n
		if t > n {
			s.Correct += t
		} else {
			s.Correct += n
		}
	}
	return s
}
