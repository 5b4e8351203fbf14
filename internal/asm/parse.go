package asm

import (
	"strconv"
	"strings"

	"ilplimit/internal/isa"
)

// instruction parses one instruction statement and appends it to the
// program.  A real opcode's operands follow its isa.Format; the
// pseudo-instructions expand to one real instruction each.
func (a *assembler) instruction(line string, lineNo int) error {
	mnem := line
	rest := ""
	if i := strings.IndexAny(line, " \t"); i >= 0 {
		mnem, rest = line[:i], strings.TrimSpace(line[i+1:])
	}
	mnem = strings.ToLower(mnem)
	var ops []string
	if rest != "" {
		for _, o := range strings.Split(rest, ",") {
			ops = append(ops, strings.TrimSpace(o))
		}
	}
	at := len(a.prog.Instrs)
	emit := func(in isa.Instr) {
		a.prog.Instrs = append(a.prog.Instrs, in)
	}

	// Pseudo-instructions first.
	switch mnem {
	case "beqz", "bnez", "bltz", "bgez", "blez", "bgtz":
		// A branch against zero is the two-register branch with $zero.
		if len(ops) != 2 {
			return a.errf(lineNo, "%s needs reg, label", mnem)
		}
		rs, err := a.reg(ops[0], lineNo)
		if err != nil {
			return err
		}
		emit(isa.Instr{Op: isa.OpByName[strings.TrimSuffix(mnem, "z")], Rs: rs, Rt: isa.RZero, TargetSym: ops[1]})
		a.patches = append(a.patches, patch{instr: at, label: ops[1], line: lineNo})
		return nil
	case "not":
		if len(ops) != 2 {
			return a.errf(lineNo, "not needs rd, rs")
		}
		rd, err1 := isa.ParseReg(ops[0])
		rs, err2 := isa.ParseReg(ops[1])
		if err1 != nil || err2 != nil {
			return a.errf(lineNo, "bad register in %q", line)
		}
		emit(isa.Instr{Op: isa.NOR, Rd: rd, Rs: rs, Rt: isa.RZero})
		return nil
	case "neg":
		if len(ops) != 2 {
			return a.errf(lineNo, "neg needs rd, rs")
		}
		rd, err1 := isa.ParseReg(ops[0])
		rs, err2 := isa.ParseReg(ops[1])
		if err1 != nil || err2 != nil {
			return a.errf(lineNo, "bad register in %q", line)
		}
		emit(isa.Instr{Op: isa.SUB, Rd: rd, Rs: isa.RZero, Rt: rs})
		return nil
	case "subi":
		if len(ops) != 3 {
			return a.errf(lineNo, "subi needs rd, rs, imm")
		}
		rd, err1 := isa.ParseReg(ops[0])
		rs, err2 := isa.ParseReg(ops[1])
		imm, err3 := strconv.ParseInt(ops[2], 0, 64)
		if err1 != nil || err2 != nil || err3 != nil {
			return a.errf(lineNo, "bad operand in %q", line)
		}
		emit(isa.Instr{Op: isa.ADDI, Rd: rd, Rs: rs, Imm: -imm})
		return nil
	case "ret":
		emit(isa.Instr{Op: isa.JR, Rs: isa.RRA})
		return nil
	}

	op, ok := isa.OpByName[mnem]
	if !ok {
		return a.errf(lineNo, "unknown mnemonic %q", mnem)
	}
	format := op.Format()
	if len(ops) != len(format) {
		return a.errf(lineNo, "%s needs %d operands, got %d", mnem, len(format), len(ops))
	}
	in := isa.Instr{Op: op}
	for k, arg := range format {
		s := ops[k]
		var err error
		switch arg {
		case isa.ArgRd, isa.ArgGuardRd:
			in.Rd, err = a.reg(s, lineNo)
		case isa.ArgRs:
			in.Rs, err = a.reg(s, lineNo)
		case isa.ArgRt:
			in.Rt, err = a.reg(s, lineNo)
		case isa.ArgImm:
			if in.Imm, err = strconv.ParseInt(s, 0, 64); err != nil {
				err = a.errf(lineNo, "bad immediate %q", s)
			}
		case isa.ArgFloat:
			if in.FImm, err = strconv.ParseFloat(s, 64); err != nil {
				err = a.errf(lineNo, "bad float immediate %q", s)
			}
		case isa.ArgData:
			// Data addresses resolve in pass two via DataSyms; the
			// symbol stays in TargetSym for display.
			in.TargetSym = s
			a.laPatches = append(a.laPatches, laPatch{instr: at, label: s, line: lineNo})
		case isa.ArgMem:
			var sym string
			if in.Imm, in.Rs, sym, err = a.memOperand(s, lineNo); sym != "" {
				a.laPatches = append(a.laPatches, laPatch{instr: at, label: sym, line: lineNo})
			}
		case isa.ArgLabel:
			in.TargetSym = s
			a.patches = append(a.patches, patch{instr: at, label: s, line: lineNo})
		case isa.ArgTable:
			a.jtPatches = append(a.jtPatches, jtPatch{instr: at, name: s, line: lineNo})
		}
		if err != nil {
			return err
		}
	}
	emit(in)
	return nil
}

// reg parses a register operand.
func (a *assembler) reg(s string, lineNo int) (isa.Reg, error) {
	r, err := isa.ParseReg(s)
	if err != nil {
		return 0, a.errf(lineNo, "%v", err)
	}
	return r, nil
}

// memOperand parses "imm(reg)", "(reg)" or "symbol(reg)".  For the symbol
// form it returns the data-symbol name for pass-two resolution (the
// immediate becomes the symbol's address), which lets generated code access
// global scalars as "lw $t0, g($zero)" in a single instruction.
func (a *assembler) memOperand(s string, lineNo int) (int64, isa.Reg, string, error) {
	open := strings.IndexByte(s, '(')
	close_ := strings.LastIndexByte(s, ')')
	if open < 0 || close_ < open {
		return 0, 0, "", a.errf(lineNo, "bad memory operand %q (want imm(reg))", s)
	}
	r, err := isa.ParseReg(strings.TrimSpace(s[open+1 : close_]))
	if err != nil {
		return 0, 0, "", a.errf(lineNo, "%v", err)
	}
	immStr := strings.TrimSpace(s[:open])
	if immStr == "" {
		return 0, r, "", nil
	}
	if c := immStr[0]; c == '-' || (c >= '0' && c <= '9') {
		imm, err := strconv.ParseInt(immStr, 0, 64)
		if err != nil {
			return 0, 0, "", a.errf(lineNo, "bad offset %q", immStr)
		}
		return imm, r, "", nil
	}
	if !isIdent(immStr) {
		return 0, 0, "", a.errf(lineNo, "bad offset %q", immStr)
	}
	return 0, r, immStr, nil
}
