package isa

import "strconv"

// Instr is one decoded instruction.  Branch and jump targets are resolved to
// instruction indices at assembly time; TargetSym preserves the label for
// disassembly.
type Instr struct {
	Op  Op
	Rd  Reg // destination register
	Rs  Reg // first source register
	Rt  Reg // second source register
	Imm int64
	// FImm is the immediate for FLI.
	FImm float64
	// Target is the resolved instruction index for direct control transfers.
	Target int
	// Table indexes Program.Tables for JTAB.
	Table int
	// TargetSym is the label used in the source, for display only.
	TargetSym string
}

// SrcRegs reports the registers the instruction reads, without allocating.
// It returns up to three registers in field order Rs, Rt, Rd; n is the
// count of valid entries.  A guarded move reads its destination, which
// it preserves when the guard fails.
// Reads of the hardwired zero register are reported like any other read;
// callers that track dependences may skip r0 themselves (writes to r0 are
// discarded, so its last-write time never advances).
func (in *Instr) SrcRegs() (a, b, c Reg, n int) {
	var srcs [3]Reg
	for _, arg := range in.Op.Format() {
		switch arg {
		case ArgRs, ArgMem:
			srcs[0] = in.Rs
		case ArgRt:
			srcs[1] = in.Rt
		case ArgGuardRd:
			srcs[2] = in.Rd
		default:
			continue
		}
		n++
	}
	return srcs[0], srcs[1], srcs[2], n
}

// DestReg reports the register the instruction writes, if any: its Rd
// operand, or $ra for a call.  A write to the hardwired zero register is
// reported as no write.
func (in *Instr) DestReg() (Reg, bool) {
	if in.Op.IsCall() {
		return RRA, true
	}
	for _, arg := range in.Op.Format() {
		if (arg == ArgRd || arg == ArgGuardRd) && in.Rd != RZero {
			return in.Rd, true
		}
	}
	return 0, false
}

// String renders the instruction in assembly syntax.  A label or data
// symbol prints as its source name when known, else as its index or
// address.
func (in *Instr) String() string {
	b := append(make([]byte, 0, 32), in.Op.String()...)
	for i, arg := range in.Op.Format() {
		if i == 0 {
			b = append(b, ' ')
		} else {
			b = append(b, ", "...)
		}
		switch arg {
		case ArgRd, ArgGuardRd:
			b = append(b, in.Rd.String()...)
		case ArgRs:
			b = append(b, in.Rs.String()...)
		case ArgRt:
			b = append(b, in.Rt.String()...)
		case ArgImm:
			b = strconv.AppendInt(b, in.Imm, 10)
		case ArgData:
			b = appendSym(b, in.TargetSym, in.Imm)
		case ArgFloat:
			b = strconv.AppendFloat(b, in.FImm, 'g', -1, 64)
		case ArgMem:
			b = strconv.AppendInt(b, in.Imm, 10)
			b = append(append(append(b, '('), in.Rs.String()...), ')')
		case ArgLabel:
			b = appendSym(b, in.TargetSym, int64(in.Target))
		case ArgTable:
			b = strconv.AppendInt(append(b, 'T'), int64(in.Table), 10)
		}
	}
	return string(b)
}

// appendSym appends sym, or n when sym is empty.
func appendSym(b []byte, sym string, n int64) []byte {
	if sym != "" {
		return append(b, sym...)
	}
	return strconv.AppendInt(b, n, 10)
}
