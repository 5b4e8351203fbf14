package dataflow

import (
	"ilplimit/internal/cfg"
	"ilplimit/internal/isa"
)

// RegSet is a bitset over the 64-register space.
type RegSet uint64

// Has reports membership.
func (s RegSet) Has(r isa.Reg) bool { return s&(1<<uint(r)) != 0 }

// Add returns the set with r included.
func (s RegSet) Add(r isa.Reg) RegSet { return s | 1<<uint(r) }

// Remove returns the set without r.
func (s RegSet) Remove(r isa.Reg) RegSet { return s &^ (1 << uint(r)) }

// Liveness holds per-block register liveness for one procedure.
type Liveness struct {
	// LiveIn and LiveOut are indexed by block id.
	LiveIn  []RegSet
	LiveOut []RegSet
}

// callerSaved are the registers a call may clobber: v0/v1, a0-a3, t0-t9,
// at, ra and every floating-point register except the callee-saved homes
// f20-f31.
var callerSaved RegSet

func init() {
	for r := isa.RAT; r <= isa.RT9; r++ {
		callerSaved = callerSaved.Add(r)
	}
	for f := 0; f < 20; f++ {
		callerSaved = callerSaved.Add(isa.FReg(f))
	}
	callerSaved = callerSaved.Add(isa.RRA)
}

// uses returns the registers an instruction reads, as a set (r0 excluded:
// it is never meaningfully live).
func uses(in *isa.Instr) RegSet {
	var s RegSet
	a, b, c, n := in.SrcRegs()
	if n > 0 && a != isa.RZero {
		s = s.Add(a)
	}
	if n > 1 && b != isa.RZero {
		s = s.Add(b)
	}
	if n > 2 && c != isa.RZero {
		s = s.Add(c)
	}
	return s
}

// def returns the register an instruction writes, if any.
func def(in *isa.Instr) (isa.Reg, bool) { return in.DestReg() }

// ComputeLiveness runs the classic backward dataflow over one procedure's
// CFG.  Calls are treated as using the argument/result registers they may
// read and defining the caller-saved set; returns use the callee-saved
// registers, the stack pointer and the result registers (so values needed
// after the call or by the caller stay live).
func ComputeLiveness(p *isa.Program, g *cfg.Graph) *Liveness {
	n := len(g.Blocks)
	lv := &Liveness{LiveIn: make([]RegSet, n), LiveOut: make([]RegSet, n)}

	// Per-block gen (upward-exposed uses) and kill (defs).
	gen := make([]RegSet, n)
	kill := make([]RegSet, n)
	for b := range g.Blocks {
		blk := &g.Blocks[b]
		var genS, killS RegSet
		for i := blk.Start; i < blk.End; i++ {
			in := &p.Instrs[i]
			u := instrUses(p, in)
			genS |= u &^ killS
			if d, ok := instrDefs(in); ok {
				killS |= d
			}
		}
		gen[b], kill[b] = genS, killS
	}

	for changed := true; changed; {
		changed = false
		for b := n - 1; b >= 0; b-- {
			var out RegSet
			if len(g.Blocks[b].Succs) == 0 {
				// Procedure exit: callee-saved registers, sp and the result
				// registers are live out of the procedure.
				out = exitLive
			}
			for _, s := range g.Blocks[b].Succs {
				out |= lv.LiveIn[s]
			}
			in := gen[b] | (out &^ kill[b])
			if out != lv.LiveOut[b] || in != lv.LiveIn[b] {
				lv.LiveOut[b] = out
				lv.LiveIn[b] = in
				changed = true
			}
		}
	}
	return lv
}

// exitLive is the set assumed live at procedure exits.
var exitLive RegSet

func init() {
	for r := isa.RS0; r <= isa.RS7; r++ {
		exitLive = exitLive.Add(r)
	}
	for f := 20; f < 32; f++ {
		exitLive = exitLive.Add(isa.FReg(f))
	}
	exitLive = exitLive.Add(isa.RSP).Add(isa.RFP).Add(isa.RGP)
	exitLive = exitLive.Add(isa.RV0).Add(isa.RV1).Add(isa.F0).Add(isa.FReg(1))
}

// instrUses extends plain register uses with call effects: a call may read
// the argument registers and, transitively, anything the callee reads.
// Conservatively, calls use the argument registers and sp.
func instrUses(p *isa.Program, in *isa.Instr) RegSet {
	if in.Op.IsCall() {
		var s RegSet
		for r := isa.RA0; r <= isa.RA3; r++ {
			s = s.Add(r)
		}
		for f := 12; f <= 15; f++ {
			s = s.Add(isa.FReg(f))
		}
		s = s.Add(isa.RSP)
		if in.Op == isa.JALR {
			s = s.Add(in.Rs)
		}
		return s
	}
	// A return's read of ra is a plain use; values for the caller are
	// handled by exitLive at the block level.
	return uses(in)
}

// instrDefs extends plain defs with call clobbers: a call defines every
// caller-saved register.
func instrDefs(in *isa.Instr) (RegSet, bool) {
	if in.Op.IsCall() {
		return callerSaved, true
	}
	if d, ok := def(in); ok {
		var s RegSet
		return s.Add(d), true
	}
	return 0, false
}

// LiveAfter computes, for each instruction of block b, the set of
// registers live immediately after it executes.  Index k corresponds to
// instruction blk.Start+k.
func (lv *Liveness) LiveAfter(p *isa.Program, g *cfg.Graph, b int) []RegSet {
	blk := &g.Blocks[b]
	n := blk.End - blk.Start
	after := make([]RegSet, n)
	cur := lv.LiveOut[b]
	for k := n - 1; k >= 0; k-- {
		after[k] = cur
		in := &p.Instrs[blk.Start+k]
		if d, ok := instrDefs(in); ok {
			cur &^= d
		}
		cur |= instrUses(p, in)
	}
	return after
}
