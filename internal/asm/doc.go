// Package asm implements a two-pass assembler for the isa package.
//
// Source syntax, one statement per line ('#' starts a comment):
//
//	.data                     switch to the data segment
//	.text                     switch to the text segment (default)
//	label: .word 1 2 3.5      initialized words (floats stored as bits)
//	label: .space N           N zero words (the data segment stays within 2^24 words)
//	.proc name                begin procedure "name" (defines the label)
//	.endproc                  end the current procedure
//	.jumptable name: L0 L1 …  define a jump table of code labels
//	label:  op operands       labels may share a line with an instruction
//
// An opcode's operands, their count and their syntax come from its
// isa.Format.
//
// Pseudo-instructions: beqz/bnez/bltz/bgez/blez/bgtz rs, label;
// not/neg rd, rs; ret; subi rd, rs, imm.
package asm
