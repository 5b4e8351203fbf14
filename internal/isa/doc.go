// Package isa defines the instruction set architecture used throughout the
// limit study: a MIPS-like, word-addressed RISC with 32 integer and 32
// floating-point registers.  The dependence analyzer, the assembler, the
// mini-C code generator and the tracing VM all share these definitions.
//
// Each opcode's operands are stated once, in the operand table behind
// Op.Format: the assembler parses them, Instr.String prints them, and
// Instr.SrcRegs and Instr.DestReg report exactly the registers they
// name (plus $ra for a call).
//
// Memory is word addressed: each address names one 64-bit cell.  Byte
// packing contributes nothing to a dependence study (the paper's analyzer
// compares effective addresses, nothing more), so the ISA omits it.
package isa
