package trace

import (
	"testing"

	"ilplimit/internal/asm"
	"ilplimit/internal/isa"
)

func TestInlineMarks(t *testing.T) {
	p, err := asm.Assemble(`
.proc main
	jal  f
	addi $t0, $t0, 1
	halt
.endproc
.proc f
	addi $sp, $sp, -2
	sw   $ra, 0($sp)
	mov  $t1, $sp
	addi $t2, $sp, 5
	lw   $ra, 0($sp)
	addi $sp, $sp, 2
	ret
.endproc
`)
	if err != nil {
		t.Fatal(err)
	}
	marks := InlineMarks(p)
	wantMarked := map[isa.Op]bool{isa.JAL: true, isa.JR: true}
	for i := range p.Instrs {
		in := &p.Instrs[i]
		d, hasD := in.DestReg()
		spWrite := hasD && d == isa.RSP
		want := wantMarked[in.Op] || spWrite
		if marks[i] != want {
			t.Errorf("instr %d (%s): marked=%v, want %v", i, in, marks[i], want)
		}
	}
	// Reading sp (mov/addi from sp, frame loads/stores) must NOT be marked.
	for i := range p.Instrs {
		in := &p.Instrs[i]
		if in.Op == isa.SW || in.Op == isa.LW || (in.Op == isa.MOV && in.Rs == isa.RSP) {
			if marks[i] {
				t.Errorf("instr %d (%s) reads sp but must stay in the trace", i, in)
			}
		}
	}
}

func TestFilterCombination(t *testing.T) {
	p, err := asm.Assemble(`
.proc main
	jal f
	halt
.endproc
.proc f
	nop
	ret
.endproc
`)
	if err != nil {
		t.Fatal(err)
	}
	unroll := make([]bool, len(p.Instrs))
	unroll[p.Symbols["f"]] = true // pretend the nop is an induction update

	f := NewFilter(p, unroll)
	if !f.Ignored(0) {
		t.Error("jal should be ignored")
	}
	if !f.Ignored(int32(p.Symbols["f"])) {
		t.Error("unroll-marked instruction should be ignored")
	}
	if f.Ignored(1) {
		t.Error("halt should not be ignored")
	}

	noUnroll := NewFilter(p, nil)
	if noUnroll.Ignored(int32(p.Symbols["f"])) {
		t.Error("with unrolling disabled the nop must stay")
	}
}
