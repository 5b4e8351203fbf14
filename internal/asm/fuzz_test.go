package asm

import "testing"

// FuzzAssemble checks that arbitrary text never panics the assembler, and
// that anything it accepts validates and survives a disassembly round
// trip.  The daemon assembles client-supplied programs, so make
// faultcheck fuzzes this target.
func FuzzAssemble(f *testing.F) {
	seeds := []string{
		"",
		tinyProg,
		".proc main\n halt\n.endproc",
		".data\nx: .word 1 2 3.5\n.proc main\n la $t0, x\n lw $t1, 0($t0)\n halt\n.endproc",
		".jumptable d: a b\n.proc main\n li $t0, 0\n jtab $t0, d\na: nop\nb: halt\n.endproc",
		".proc main\nx: beq $t0, $t1, x\n halt\n.endproc",
		".proc main\n cmovn $s0, $t0, $t1\n fli $f0, 1e10\n halt\n.endproc",
		".proc main\n subi $t0, $t1, 5\n not $t2, $t0\n neg $t3, $t0\n ret\n.endproc",
	}
	// One seed per isa.Format, each wrapped in a program that defines
	// every label, data symbol and jump table its operands name.
	for _, ins := range []string{
		"nop", "add $t0, $t1, $t2", "cmovz $s0, $t0, $t1", "slti $t0, $t1, -9",
		"li $t0, 0x7f", "la $t0, x", "fli $f1, -2.5e3", "fsqrt $f0, $f1",
		"flw $f0, x($zero)", "sw $t0, -1($sp)", "bge $t0, $t1, end", "jal end",
		"printc $t0", "jtab $t0, T",
	} {
		seeds = append(seeds, ".data\nx: .word 4\n.text\n.jumptable T: end\n.proc main\n "+ins+"\nend: halt\n.endproc")
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		p, err := Assemble(src)
		if err != nil {
			return
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("accepted program fails validation: %v\n%s", err, src)
		}
		// Whatever assembles must disassemble to something assemblable.
		if _, err := Assemble(p.Disassemble()); err != nil {
			t.Fatalf("disassembly does not reassemble: %v\n%s", err, p.Disassemble())
		}
	})
}
