package isa

import "slices"

// Operand is one assembly operand of an instruction: its syntax and the
// Instr field it fills.
type Operand uint8

// The operand kinds.  The register kinds name the field they fill; the
// rest say how the assembler reads the operand's text.
const (
	ArgRd      Operand = iota + 1 // register written: Rd
	ArgGuardRd                    // register in Rd that a guarded move also reads
	ArgRs                         // register read: Rs
	ArgRt                         // register read: Rt
	ArgImm                        // integer immediate: Imm
	ArgData                       // data symbol whose address fills Imm
	ArgFloat                      // float immediate: FImm
	ArgMem                        // memory operand imm(rs) or symbol(rs): Imm and Rs
	ArgLabel                      // code label, resolved into Target
	ArgTable                      // jump table name, resolved into Table
)

// Format is an opcode's operand list in assembly order.
type Format []Operand

// The formats.  Every format that reads Rt also reads Rs, and only the
// guarded one reads Rd, which SrcRegs relies on to report the sources in
// field order Rs, Rt, Rd.
var (
	fmtRRR    = Format{ArgRd, ArgRs, ArgRt}
	fmtGuard  = Format{ArgGuardRd, ArgRs, ArgRt}
	fmtRRI    = Format{ArgRd, ArgRs, ArgImm}
	fmtRI     = Format{ArgRd, ArgImm}
	fmtRData  = Format{ArgRd, ArgData}
	fmtRF     = Format{ArgRd, ArgFloat}
	fmtRR     = Format{ArgRd, ArgRs}
	fmtLoad   = Format{ArgRd, ArgMem}
	fmtStore  = Format{ArgRt, ArgMem}
	fmtBranch = Format{ArgRs, ArgRt, ArgLabel}
	fmtJump   = Format{ArgLabel}
	fmtR      = Format{ArgRs}
	fmtJTab   = Format{ArgRs, ArgTable}
)

// formats is the one operand table: the assembler, the printer, the
// register roles and the target checks all read it.  NOP and HALT take
// no operands.
var formats = [numOps]Format{
	ADD: fmtRRR, SUB: fmtRRR, MUL: fmtRRR, DIV: fmtRRR, REM: fmtRRR,
	AND: fmtRRR, OR: fmtRRR, XOR: fmtRRR, NOR: fmtRRR,
	SLL: fmtRRR, SRL: fmtRRR, SRA: fmtRRR,
	SLT: fmtRRR, SLE: fmtRRR, SEQ: fmtRRR, SNE: fmtRRR,
	ADDI: fmtRRI, MULI: fmtRRI, ANDI: fmtRRI, ORI: fmtRRI, XORI: fmtRRI,
	SLLI: fmtRRI, SRLI: fmtRRI, SRAI: fmtRRI, SLTI: fmtRRI,
	LI: fmtRI, LA: fmtRData, MOV: fmtRR,
	LW: fmtLoad, SW: fmtStore, FLW: fmtLoad, FSW: fmtStore,
	FADD: fmtRRR, FSUB: fmtRRR, FMUL: fmtRRR, FDIV: fmtRRR,
	FNEG: fmtRR, FABS: fmtRR, FSQRT: fmtRR, FMOV: fmtRR, FLI: fmtRF,
	FSLT: fmtRRR, FSLE: fmtRRR, FSEQ: fmtRRR, FSNE: fmtRRR,
	CVTIF: fmtRR, CVTFI: fmtRR,
	BEQ: fmtBranch, BNE: fmtBranch, BLT: fmtBranch,
	BGE: fmtBranch, BLE: fmtBranch, BGT: fmtBranch,
	J: fmtJump, JAL: fmtJump, JR: fmtR, JALR: fmtR, JTAB: fmtJTab,
	CMOVN: fmtGuard, CMOVZ: fmtGuard, FCMOVN: fmtGuard, FCMOVZ: fmtGuard,
	PRINTI: fmtR, PRINTF: fmtR, PRINTC: fmtR,
}

// Format returns the opcode's operands in assembly order.  An opcode
// outside the table has none.
func (o Op) Format() Format {
	if int(o) < len(formats) {
		return formats[o]
	}
	return nil
}

// HasTarget reports whether the opcode names a code label, resolved
// into Instr.Target: the conditional branches, J and JAL.
func (o Op) HasTarget() bool { return slices.Contains(o.Format(), ArgLabel) }
