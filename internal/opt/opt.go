package opt

import (
	"fmt"

	"ilplimit/internal/cfg"
	"ilplimit/internal/dataflow"
	"ilplimit/internal/isa"
)

// Result reports what the optimizer did.
type Result struct {
	Program *isa.Program
	// Removed counts deleted instructions; Rewritten counts in-place
	// simplifications (copy propagation, immediate fusion, forwarding).
	Removed   int
	Rewritten int
	Rounds    int
}

// Optimize returns an optimized copy of the program.
func Optimize(p *isa.Program) (*Result, error) {
	cur := cloneProgram(p)
	res := &Result{}
	for round := 0; round < 4; round++ {
		res.Rounds = round + 1
		rewritten, err := rewritePass(cur)
		if err != nil {
			return nil, err
		}
		res.Rewritten += rewritten
		dead, err := markDead(cur)
		if err != nil {
			return nil, err
		}
		removed := 0
		for _, d := range dead {
			if d {
				removed++
			}
		}
		if rewritten == 0 && removed == 0 {
			break
		}
		if removed > 0 {
			cur = rebuild(cur, dead)
			res.Removed += removed
		}
		if err := cur.Validate(); err != nil {
			return nil, fmt.Errorf("opt: invalid after round %d: %w", round, err)
		}
	}
	res.Program = cur
	return res, nil
}

func cloneProgram(p *isa.Program) *isa.Program {
	q := &isa.Program{
		Instrs:   append([]isa.Instr(nil), p.Instrs...),
		Procs:    append([]isa.Proc(nil), p.Procs...),
		Data:     append([]int64(nil), p.Data...),
		Symbols:  make(map[string]int, len(p.Symbols)),
		DataSyms: make(map[string]int64, len(p.DataSyms)),
		Entry:    p.Entry,
	}
	for _, t := range p.Tables {
		q.Tables = append(q.Tables, append([]int(nil), t...))
	}
	for k, v := range p.Symbols {
		q.Symbols[k] = v
	}
	for k, v := range p.DataSyms {
		q.DataSyms[k] = v
	}
	return q
}

// immForm maps fusable register-register opcodes to their immediate forms.
var immForm = map[isa.Op]isa.Op{
	isa.ADD: isa.ADDI, isa.MUL: isa.MULI, isa.AND: isa.ANDI,
	isa.OR: isa.ORI, isa.XOR: isa.XORI, isa.SLL: isa.SLLI,
	isa.SRL: isa.SRLI, isa.SRA: isa.SRAI, isa.SLT: isa.SLTI,
}

var commutative = map[isa.Op]bool{
	isa.ADD: true, isa.MUL: true, isa.AND: true, isa.OR: true, isa.XOR: true,
}

// rewritePass performs the forward, block-local rewrites.
func rewritePass(p *isa.Program) (int, error) {
	rewritten := 0
	for _, proc := range p.Procs {
		g, err := cfg.Build(p, proc)
		if err != nil {
			return 0, err
		}
		for b := range g.Blocks {
			rewritten += rewriteBlock(p, &g.Blocks[b])
		}
	}
	return rewritten, nil
}

type memKey struct {
	base isa.Reg
	off  int64
}

func rewriteBlock(p *isa.Program, blk *cfg.Block) int {
	changed := 0
	// copyOf[d] = s when d currently holds a copy of s.
	var copyOf [isa.NumRegs]isa.Reg
	var hasCopy [isa.NumRegs]bool
	// constVal[r] is r's known constant.
	var constVal [isa.NumRegs]int64
	var hasConst [isa.NumRegs]bool
	// memVal maps a (base,offset) key to the register last known to hold
	// that memory word's value.
	memVal := map[memKey]isa.Reg{}

	invalidateReg := func(r isa.Reg) {
		hasCopy[r] = false
		hasConst[r] = false
		for d := 0; d < isa.NumRegs; d++ {
			if hasCopy[d] && copyOf[d] == r {
				hasCopy[d] = false
			}
		}
		for k, v := range memVal {
			if v == r || k.base == r {
				delete(memVal, k)
			}
		}
	}
	invalidateAll := func() {
		for r := 0; r < isa.NumRegs; r++ {
			hasCopy[r] = false
			hasConst[r] = false
		}
		memVal = map[memKey]isa.Reg{}
	}

	// resolve follows a copy chain one step (enough: chains collapse over
	// iterations).
	resolve := func(r isa.Reg) isa.Reg {
		if r != isa.RZero && hasCopy[r] {
			return copyOf[r]
		}
		return r
	}
	propagate := func(r *isa.Reg) {
		if ns := resolve(*r); ns != *r {
			*r = ns
			changed++
		}
	}

	for i := blk.Start; i < blk.End; i++ {
		in := &p.Instrs[i]
		op := in.Op

		// 1. Copy propagation on the format's rs, rt and memory-base
		// operands: never the guarded-move destination, which SrcRegs
		// also reports, nor the source of a call, return or computed
		// jump.
		if !op.IsCall() && !op.IsReturn() && !op.IsComputedJump() {
			for _, arg := range op.Format() {
				switch arg {
				case isa.ArgRs, isa.ArgMem:
					propagate(&in.Rs)
				case isa.ArgRt:
					propagate(&in.Rt)
				}
			}
		}

		// 2. Immediate fusion using known constants.
		if imm, ok := immForm[op]; ok {
			if in.Rt != isa.RZero && hasConst[in.Rt] {
				in.Op, in.Imm, in.Rt = imm, constVal[in.Rt], 0
				changed++
			} else if in.Rt == isa.RZero {
				in.Op, in.Imm, in.Rt = imm, 0, 0
				changed++
			} else if commutative[op] && in.Rs != isa.RZero && hasConst[in.Rs] {
				in.Op, in.Imm = imm, constVal[in.Rs]
				in.Rs, in.Rt = in.Rt, 0
				changed++
			}
		}
		if op == isa.SUB && in.Rt != isa.RZero && hasConst[in.Rt] && in.Rs != isa.RZero {
			in.Op, in.Imm, in.Rt = isa.ADDI, -constVal[in.Rt], 0
			changed++
		}
		op = in.Op

		// 3. Memory forwarding.
		if op == isa.LW {
			key := memKey{in.Rs, in.Imm}
			if v, ok := memVal[key]; ok && !v.IsFloat() {
				*in = isa.Instr{Op: isa.MOV, Rd: in.Rd, Rs: v}
				op = isa.MOV
				changed++
			}
		}
		if op == isa.FLW {
			key := memKey{in.Rs, in.Imm}
			if v, ok := memVal[key]; ok && v.IsFloat() {
				*in = isa.Instr{Op: isa.FMOV, Rd: in.Rd, Rs: v}
				op = isa.FMOV
				changed++
			}
		}

		// 4. Update tracked state.
		if d, ok := in.DestReg(); ok {
			invalidateReg(d)
			switch op {
			case isa.LI, isa.LA:
				constVal[d] = in.Imm
				hasConst[d] = true
			case isa.MOV, isa.FMOV:
				if in.Rs != isa.RZero && in.Rs != d {
					copyOf[d] = in.Rs
					hasCopy[d] = true
					if hasConst[in.Rs] {
						constVal[d] = constVal[in.Rs]
						hasConst[d] = true
					}
				}
			case isa.ADDI:
				if in.Rs != isa.RZero && hasConst[in.Rs] {
					constVal[d] = constVal[in.Rs] + in.Imm
					hasConst[d] = true
				} else if in.Rs == isa.RZero {
					constVal[d] = in.Imm
					hasConst[d] = true
				}
			case isa.LW, isa.FLW:
				memVal[memKey{in.Rs, in.Imm}] = d
			}
		}
		switch {
		case op.IsStore():
			// A store may alias every tracked word through another base.
			memVal = map[memKey]isa.Reg{memKey{in.Rs, in.Imm}: in.Rt}
		case op.IsCall():
			invalidateAll()
		}
	}
	return changed
}

// pureOp reports whether an instruction's only effect is writing its
// destination register.
func pureOp(op isa.Op) bool {
	switch {
	case op.IsStore(), op.IsCall(), op.IsReturn(), op.IsBranchConstraint():
		return false
	}
	switch op {
	case isa.J, isa.HALT, isa.NOP, isa.PRINTI, isa.PRINTF, isa.PRINTC:
		return false
	}
	return true
}

// markDead flags instructions whose results are never used (liveness-based
// dead-code elimination) plus identity no-ops.
func markDead(p *isa.Program) ([]bool, error) {
	dead := make([]bool, len(p.Instrs))
	for _, proc := range p.Procs {
		g, err := cfg.Build(p, proc)
		if err != nil {
			return nil, err
		}
		lv := dataflow.ComputeLiveness(p, g)
		for b := range g.Blocks {
			blk := &g.Blocks[b]
			after := lv.LiveAfter(p, g, b)
			for i := blk.Start; i < blk.End; i++ {
				in := &p.Instrs[i]
				if !pureOp(in.Op) {
					continue
				}
				d, ok := in.DestReg()
				if !ok {
					continue
				}
				if !after[i-blk.Start].Has(d) {
					dead[i] = true
					continue
				}
				// Identity no-ops.
				switch in.Op {
				case isa.MOV, isa.FMOV:
					if in.Rd == in.Rs {
						dead[i] = true
					}
				case isa.ADDI, isa.ORI, isa.XORI, isa.SLLI, isa.SRLI, isa.SRAI:
					if in.Rd == in.Rs && in.Imm == 0 {
						dead[i] = true
					}
				case isa.MULI:
					if in.Rd == in.Rs && in.Imm == 1 {
						dead[i] = true
					}
				}
			}
		}
	}
	return dead, nil
}

// rebuild produces a program with the dead instructions removed and every
// index (targets, tables, symbols, procedures, entry) remapped.
func rebuild(p *isa.Program, dead []bool) *isa.Program {
	newIdx := make([]int, len(p.Instrs)+1)
	kept := 0
	for i := range p.Instrs {
		newIdx[i] = kept
		if !dead[i] {
			kept++
		}
	}
	newIdx[len(p.Instrs)] = kept

	q := &isa.Program{
		Instrs:   make([]isa.Instr, 0, kept),
		Data:     p.Data,
		Symbols:  make(map[string]int, len(p.Symbols)),
		DataSyms: p.DataSyms,
		Entry:    newIdx[p.Entry],
	}
	for i := range p.Instrs {
		if dead[i] {
			continue
		}
		in := p.Instrs[i]
		if in.Op.HasTarget() {
			in.Target = newIdx[in.Target]
		}
		q.Instrs = append(q.Instrs, in)
	}
	for _, t := range p.Tables {
		nt := make([]int, len(t))
		for k, idx := range t {
			nt[k] = newIdx[idx]
		}
		q.Tables = append(q.Tables, nt)
	}
	for sym, idx := range p.Symbols {
		q.Symbols[sym] = newIdx[idx]
	}
	for _, pr := range p.Procs {
		q.Procs = append(q.Procs, isa.Proc{Name: pr.Name, Start: newIdx[pr.Start], End: newIdx[pr.End]})
	}
	return q
}
