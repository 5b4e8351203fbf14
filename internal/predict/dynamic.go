package predict

import (
	"ilplimit/internal/isa"
	"ilplimit/internal/vm"
)

// Oracle judges whether a dynamic branch event was mispredicted.  The
// profile-based Predictor is the paper's model; DynamicProfile provides the
// 2-bit dynamic scheme the paper cites as performing similarly (§2.1),
// enabling that claim to be checked.
type Oracle interface {
	Mispredicted(ev vm.Event) bool
}

// DynamicProfile simulates a dynamic branch predictor over a trace: one
// 2-bit saturating counter per static conditional branch (an infinite
// branch-history table, consistent with the study's other idealizations).
// Because prediction depends on execution order, the misprediction of each
// dynamic branch is recorded during a training pass, keyed by the event's
// trace sequence number, and replayed by the resulting TraceOutcomes.
type DynamicProfile struct {
	prog     *isa.Program
	counters []uint8 // 0,1 predict not-taken; 2,3 predict taken
	outcomes *TraceOutcomes
	cond     int64
	correct  int64
}

// NewDynamicProfile creates a trainer with all counters weakly not-taken.
func NewDynamicProfile(p *isa.Program) *DynamicProfile {
	d := &DynamicProfile{
		prog:     p,
		counters: make([]uint8, len(p.Instrs)),
		outcomes: &TraceOutcomes{kinds: branchKinds(p)},
	}
	for i := range d.counters {
		d.counters[i] = 1 // weakly not-taken
	}
	return d
}

// Record predicts, scores and updates on one event; usable directly as a
// VM visitor.  Counters start at 1 (weakly not-taken).
func (d *DynamicProfile) Record(ev vm.Event) {
	if !d.prog.Instrs[ev.Idx].Op.IsCondBranch() {
		return
	}
	c := d.counters[ev.Idx]
	predictTaken := c >= 2
	d.cond++
	if predictTaken == ev.Taken {
		d.correct++
	} else {
		d.outcomes.set(ev.Seq)
	}
	if ev.Taken {
		if c < 3 {
			d.counters[ev.Idx] = c + 1
		}
	} else if c > 0 {
		d.counters[ev.Idx] = c - 1
	}
}

// Stats reports the dynamic prediction accuracy over the training trace.
func (d *DynamicProfile) Stats() Stats {
	return Stats{CondBranches: d.cond, Correct: d.correct}
}

// Outcomes freezes the per-event misprediction record for replay.
func (d *DynamicProfile) Outcomes() *TraceOutcomes { return d.outcomes }

// TraceOutcomes replays recorded mispredictions by trace position.  It is
// stateless per call, so any number of analyzers can share it.
type TraceOutcomes struct {
	kinds []uint8
	bits  []uint64
}

func (t *TraceOutcomes) set(seq int64) {
	word := seq >> 6
	for int64(len(t.bits)) <= word {
		t.bits = append(t.bits, 0)
	}
	t.bits[word] |= 1 << uint(seq&63)
}

// Mispredicted reports the recorded outcome for conditional branches;
// computed jumps are always mispredicted, everything else never.
func (t *TraceOutcomes) Mispredicted(ev vm.Event) bool {
	switch t.kinds[ev.Idx] {
	case kindCond:
		word := ev.Seq >> 6
		if word >= int64(len(t.bits)) {
			return false
		}
		return t.bits[word]&(1<<uint(ev.Seq&63)) != 0
	case kindJump:
		return true
	}
	return false
}

// BTFN returns a backward-taken/forward-not-taken static predictor, the
// classic profile-free heuristic, for comparison studies.
func BTFN(p *isa.Program) *Predictor {
	take := map[int]bool{}
	for i := range p.Instrs {
		in := &p.Instrs[i]
		if in.Op.IsCondBranch() && in.Target <= i {
			take[i] = true
		}
	}
	return NewStaticPredictor(p, take)
}

var (
	_ Oracle = (*Predictor)(nil)
	_ Oracle = (*TraceOutcomes)(nil)
)
