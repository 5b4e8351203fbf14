package asm

import (
	"strings"
	"testing"

	"ilplimit/internal/isa"
)

const tinyProg = `
# compute 3+4 and loop twice
.data
xs:   .word 3 4 5
half: .word 0.5
buf:  .space 8
.text
.proc main
main:
	la   $t0, xs
	lw   $t1, 0($t0)
	lw   $t2, 1($t0)
	add  $t3, $t1, $t2
	li   $t4, 2
loop:
	addi $t4, $t4, -1
	bnez $t4, loop
	sw   $t3, 0($t0)
	halt
.endproc
`

func TestAssembleTiny(t *testing.T) {
	p, err := Assemble(tinyProg)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Instrs) != 9 {
		t.Fatalf("got %d instructions, want 9", len(p.Instrs))
	}
	if len(p.Procs) != 1 || p.Procs[0].Name != "main" {
		t.Fatalf("procs = %+v", p.Procs)
	}
	if p.Entry != p.Symbols["main"] {
		t.Errorf("entry = %d, want main at %d", p.Entry, p.Symbols["main"])
	}
	// Data layout: xs at DataBase, half at DataBase+3, buf at DataBase+4.
	if p.DataSyms["xs"] != isa.DataBase {
		t.Errorf("xs at %d", p.DataSyms["xs"])
	}
	if p.DataSyms["half"] != isa.DataBase+3 {
		t.Errorf("half at %d", p.DataSyms["half"])
	}
	if p.DataSyms["buf"] != isa.DataBase+4 {
		t.Errorf("buf at %d", p.DataSyms["buf"])
	}
	if len(p.Data) != 4+8 {
		t.Errorf("data len %d, want 12", len(p.Data))
	}
	// la resolved to the xs address.
	if p.Instrs[0].Op != isa.LA || p.Instrs[0].Imm != isa.DataBase {
		t.Errorf("la = %+v", p.Instrs[0])
	}
	// bnez became BNE with $zero and resolved target.
	bnez := p.Instrs[6]
	if bnez.Op != isa.BNE || bnez.Rt != isa.RZero || bnez.Target != p.Symbols["loop"] {
		t.Errorf("bnez = %+v", bnez)
	}
}

func TestAssemblePseudo(t *testing.T) {
	src := `
.proc main
	li   $t0, 5
	not  $t1, $t0
	neg  $t2, $t0
	subi $t3, $t0, 2
	beqz $t0, out
	bltz $t0, out
	bgez $t0, out
	blez $t0, out
	bgtz $t0, out
out:
	ret
	halt
.endproc
`
	p, err := Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	want := []isa.Op{isa.LI, isa.NOR, isa.SUB, isa.ADDI, isa.BEQ, isa.BLT,
		isa.BGE, isa.BLE, isa.BGT, isa.JR, isa.HALT}
	for i, op := range want {
		if p.Instrs[i].Op != op {
			t.Errorf("instr %d: got %v, want %v", i, p.Instrs[i].Op, op)
		}
	}
	if p.Instrs[3].Imm != -2 {
		t.Errorf("subi imm = %d, want -2", p.Instrs[3].Imm)
	}
	if p.Instrs[9].Rs != isa.RRA {
		t.Errorf("ret should read $ra, got %v", p.Instrs[9].Rs)
	}
}

func TestAssembleJumpTable(t *testing.T) {
	src := `
.jumptable disp: c0 c1 c2
.proc main
	li   $t0, 1
	jtab $t0, disp
c0:	li $v0, 10
	j done
c1:	li $v0, 11
	j done
c2:	li $v0, 12
done:
	halt
.endproc
`
	p, err := Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Tables) != 1 {
		t.Fatalf("tables = %d, want 1", len(p.Tables))
	}
	tab := p.Tables[0]
	if tab[0] != p.Symbols["c0"] || tab[1] != p.Symbols["c1"] || tab[2] != p.Symbols["c2"] {
		t.Errorf("table entries %v", tab)
	}
	if p.Instrs[1].Op != isa.JTAB || p.Instrs[1].Table != 0 {
		t.Errorf("jtab = %+v", p.Instrs[1])
	}
}

func TestAssembleFloats(t *testing.T) {
	src := `
.data
pi: .word 3.14159
.proc main
	fli   $f0, 2.5
	la    $t0, pi
	flw   $f1, 0($t0)
	fadd  $f2, $f0, $f1
	fslt  $t1, $f0, $f1
	cvtfi $t2, $f2
	cvtif $f3, $t2
	fsw   $f2, 0($t0)
	halt
.endproc
`
	p, err := Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	if p.Instrs[0].FImm != 2.5 {
		t.Errorf("fli imm = %g", p.Instrs[0].FImm)
	}
	if p.Instrs[3].Rd != isa.FReg(2) || p.Instrs[3].Rs != isa.F0 {
		t.Errorf("fadd = %+v", p.Instrs[3])
	}
	if p.Instrs[4].Rd != isa.RT0+1 || !p.Instrs[4].Rs.IsFloat() {
		t.Errorf("fslt = %+v", p.Instrs[4])
	}
}

func TestAssembleErrors(t *testing.T) {
	cases := []struct {
		name, src string
	}{
		{"undefined label", ".proc main\n j nowhere\n halt\n.endproc"},
		{"duplicate label", ".proc main\nx:\n nop\nx:\n halt\n.endproc"},
		{"unknown mnemonic", ".proc main\n frobnicate $t0\n.endproc"},
		{"bad register", ".proc main\n add $q1, $t0, $t1\n.endproc"},
		{"wrong operand count", ".proc main\n add $t0, $t1\n.endproc"},
		{"instr in data", ".data\n add $t0, $t1, $t2\n"},
		{"word in text", ".proc main\n .word 3\n.endproc"},
		{"unclosed proc", ".proc main\n halt\n"},
		{"nested proc", ".proc a\n nop\n.proc b\n halt\n.endproc\n.endproc"},
		{"empty proc", ".proc a\n.endproc"},
		{"endproc alone", ".endproc"},
		{"bad directive", ".frob 3"},
		{"undefined data sym", ".proc main\n la $t0, nothing\n halt\n.endproc"},
		{"undefined table", ".proc main\n jtab $t0, nodisp\n halt\n.endproc"},
		{"empty table", ".jumptable t:\n.proc main\n halt\n.endproc"},
		{"bad mem operand", ".proc main\n lw $t0, $t1\n.endproc"},
		{"bad immediate", ".proc main\n li $t0, abc\n.endproc"},
		{"bad space", ".data\n.space -3"},
		// Sizes the heap cannot hold end the process unless refused.
		{"space past the data bound", ".data\n.space 002222222000000"},
		{"spaces summing past the data bound", ".data\n.space 16777215\n.space 2"},
		{"undefined table label", ".jumptable t: ghost\n.proc main\n halt\n.endproc"},
	}
	for _, c := range cases {
		if _, err := Assemble(c.src); err == nil {
			t.Errorf("%s: assembled without error", c.name)
		}
	}
}

func TestEntryFallbacks(t *testing.T) {
	p, err := Assemble(".proc foo\n halt\n.endproc")
	if err != nil {
		t.Fatal(err)
	}
	if p.Entry != 0 {
		t.Errorf("entry = %d, want 0", p.Entry)
	}
	p, err = Assemble(".proc main\n nop\n halt\n.endproc\n.proc _start\n jal main\n halt\n.endproc")
	if err != nil {
		t.Fatal(err)
	}
	if p.Entry != p.Symbols["_start"] {
		t.Errorf("entry = %d, want _start", p.Entry)
	}
}

func TestDisassembleRoundTrip(t *testing.T) {
	p, err := Assemble(tinyProg)
	if err != nil {
		t.Fatal(err)
	}
	dis := p.Disassemble()
	for _, want := range []string{"la $t0", "lw $t1, 0($t0)", "bne $t4, $zero, loop", ".proc main"} {
		if !strings.Contains(dis, want) {
			t.Errorf("disassembly missing %q:\n%s", want, dis)
		}
	}
}

func TestMultipleLabelsSameLine(t *testing.T) {
	src := ".proc main\na: b: li $t0, 1\n halt\n.endproc"
	p, err := Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	if p.Symbols["a"] != 0 || p.Symbols["b"] != 0 {
		t.Errorf("labels a=%d b=%d, want both 0", p.Symbols["a"], p.Symbols["b"])
	}
}

func TestNegativeAndHexImmediates(t *testing.T) {
	src := ".proc main\n li $t0, -42\n li $t1, 0xff\n addi $t2, $t0, -1\n halt\n.endproc"
	p, err := Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	if p.Instrs[0].Imm != -42 || p.Instrs[1].Imm != 255 || p.Instrs[2].Imm != -1 {
		t.Errorf("immediates: %d %d %d", p.Instrs[0].Imm, p.Instrs[1].Imm, p.Instrs[2].Imm)
	}
}
