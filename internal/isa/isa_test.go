package isa

import (
	"testing"
	"testing/quick"
)

func TestParseReg(t *testing.T) {
	cases := []struct {
		in   string
		want Reg
	}{
		{"$zero", RZero},
		{"zero", RZero},
		{"$r0", RZero},
		{"$0", RZero},
		{"$sp", RSP},
		{"$29", RSP},
		{"$ra", RRA},
		{"$v0", RV0},
		{"$a3", RA3},
		{"$t0", RT0},
		{"$t9", RT9},
		{"$s0", RS0},
		{"$s7", RS7},
		{"$f0", F0},
		{"$f31", FReg(31)},
		{"fp", RFP},
	}
	for _, c := range cases {
		got, err := ParseReg(c.in)
		if err != nil {
			t.Errorf("ParseReg(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseReg(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestParseRegErrors(t *testing.T) {
	for _, bad := range []string{"", "$", "$x9", "$f32", "$32", "r99"} {
		if r, err := ParseReg(bad); err == nil {
			t.Errorf("ParseReg(%q) = %v, want error", bad, r)
		}
	}
}

func TestRegStringRoundTrip(t *testing.T) {
	for r := Reg(0); r < NumRegs; r++ {
		back, err := ParseReg(r.String())
		if err != nil {
			t.Fatalf("ParseReg(%q): %v", r.String(), err)
		}
		if back != r {
			t.Fatalf("round trip %v -> %q -> %v", r, r.String(), back)
		}
	}
}

func TestIsFloat(t *testing.T) {
	if RSP.IsFloat() {
		t.Error("sp should not be float")
	}
	if !F0.IsFloat() {
		t.Error("f0 should be float")
	}
	if !FReg(31).IsFloat() {
		t.Error("f31 should be float")
	}
}

func TestOpClassification(t *testing.T) {
	condBranches := []Op{BEQ, BNE, BLT, BGE, BLE, BGT}
	for _, op := range condBranches {
		if !op.IsCondBranch() {
			t.Errorf("%v should be a conditional branch", op)
		}
		if !op.IsBranchConstraint() {
			t.Errorf("%v should be a branch constraint", op)
		}
		if !op.EndsBlock() {
			t.Errorf("%v should end a block", op)
		}
	}
	if !JTAB.IsComputedJump() || !JTAB.IsBranchConstraint() {
		t.Error("jtab should be a computed jump and a branch constraint")
	}
	for _, op := range []Op{J, JAL, JR, ADD, LW, HALT} {
		if op.IsCondBranch() {
			t.Errorf("%v should not be a conditional branch", op)
		}
	}
	if J.IsBranchConstraint() || JAL.IsBranchConstraint() {
		t.Error("direct jumps must not impose branch constraints")
	}
	if !JAL.IsCall() || !JALR.IsCall() {
		t.Error("jal/jalr should be calls")
	}
	if !JR.IsReturn() {
		t.Error("jr should be a return")
	}
	if JAL.EndsBlock() {
		t.Error("jal must not end a basic block (intraprocedural CFG)")
	}
	if !LW.IsLoad() || !FLW.IsLoad() || SW.IsLoad() {
		t.Error("load classification wrong")
	}
	if !SW.IsStore() || !FSW.IsStore() || LW.IsStore() {
		t.Error("store classification wrong")
	}
}

func TestOpNamesComplete(t *testing.T) {
	for op := Op(0); op < numOps; op++ {
		if op.String() == "op?" {
			t.Errorf("opcode %d has no name", op)
		}
	}
	for name, op := range OpByName {
		if op.String() != name {
			t.Errorf("OpByName[%q] = %v with name %q", name, op, op.String())
		}
	}
}

// TestFormatsComplete pins the operand table: every mnemonic except nop
// and halt has operands, and an opcode outside the table has none.
func TestFormatsComplete(t *testing.T) {
	for op := Op(0); op < numOps; op++ {
		if none := len(op.Format()) == 0; none != (op == NOP || op == HALT) {
			t.Errorf("%v: %d operands", op, len(op.Format()))
		}
	}
	if f := Op(250).Format(); f != nil {
		t.Errorf("op 250 has operands %v", f)
	}
}

func TestSrcDestRegs(t *testing.T) {
	cases := []struct {
		in       Instr
		srcs     []Reg
		dest     Reg
		hasWrite bool
	}{
		{Instr{Op: ADD, Rd: RT0, Rs: RA0, Rt: RA1}, []Reg{RA0, RA1}, RT0, true},
		{Instr{Op: ADDI, Rd: RT0, Rs: RA0, Imm: 4}, []Reg{RA0}, RT0, true},
		{Instr{Op: LI, Rd: RT0, Imm: 7}, nil, RT0, true},
		{Instr{Op: LW, Rd: RT0, Rs: RSP, Imm: 2}, []Reg{RSP}, RT0, true},
		{Instr{Op: SW, Rt: RT0, Rs: RSP, Imm: 2}, []Reg{RSP, RT0}, 0, false},
		{Instr{Op: BEQ, Rs: RT0, Rt: RT1}, []Reg{RT0, RT1}, 0, false},
		{Instr{Op: JAL}, nil, RRA, true},
		{Instr{Op: JR, Rs: RRA}, []Reg{RRA}, 0, false},
		{Instr{Op: FADD, Rd: F0, Rs: FReg(1), Rt: FReg(2)}, []Reg{FReg(1), FReg(2)}, F0, true},
		{Instr{Op: FSLT, Rd: RT0, Rs: F0, Rt: FReg(1)}, []Reg{F0, FReg(1)}, RT0, true},
		{Instr{Op: CVTIF, Rd: F0, Rs: RT0}, []Reg{RT0}, F0, true},
		{Instr{Op: HALT}, nil, 0, false},
		// Writes to r0 are discarded.
		{Instr{Op: ADD, Rd: RZero, Rs: RA0, Rt: RA1}, []Reg{RA0, RA1}, 0, false},
		// Guarded moves read their destination (preserved on a false guard).
		{Instr{Op: CMOVN, Rd: RS0, Rs: RT0, Rt: RT1}, []Reg{RT0, RT1, RS0}, RS0, true},
		{Instr{Op: FCMOVZ, Rd: F0, Rs: FReg(1), Rt: RT0}, []Reg{FReg(1), RT0, F0}, F0, true},
	}
	for _, c := range cases {
		a, b, cc, n := c.in.SrcRegs()
		var got []Reg
		if n > 0 {
			got = append(got, a)
		}
		if n > 1 {
			got = append(got, b)
		}
		if n > 2 {
			got = append(got, cc)
		}
		if len(got) != len(c.srcs) {
			t.Errorf("%s: sources %v, want %v", c.in.String(), got, c.srcs)
			continue
		}
		for i := range got {
			if got[i] != c.srcs[i] {
				t.Errorf("%s: sources %v, want %v", c.in.String(), got, c.srcs)
			}
		}
		d, ok := c.in.DestReg()
		if ok != c.hasWrite || (ok && d != c.dest) {
			t.Errorf("%s: dest (%v,%v), want (%v,%v)", c.in.String(), d, ok, c.dest, c.hasWrite)
		}
	}
}

const RT1 = RT0 + 1

func TestProcIndex(t *testing.T) {
	p := &Program{
		Instrs: make([]Instr, 10),
		Procs: []Proc{
			{Name: "a", Start: 0, End: 3},
			{Name: "b", Start: 3, End: 7},
			{Name: "c", Start: 8, End: 10},
		},
	}
	cases := map[int]int{0: 0, 2: 0, 3: 1, 6: 1, 7: -1, 8: 2, 9: 2}
	for idx, want := range cases {
		if got := p.ProcIndex(idx); got != want {
			t.Errorf("ProcIndex(%d) = %d, want %d", idx, got, want)
		}
	}
	if pr, ok := p.ProcByName("b"); !ok || pr.Start != 3 {
		t.Errorf("ProcByName(b) = %+v, %v", pr, ok)
	}
	if _, ok := p.ProcByName("zz"); ok {
		t.Error("ProcByName(zz) should fail")
	}
}

func TestValidate(t *testing.T) {
	good := &Program{
		Instrs: []Instr{
			{Op: LI, Rd: RT0, Imm: 1},
			{Op: BEQ, Rs: RT0, Rt: RZero, Target: 0},
			{Op: HALT},
		},
		Procs: []Proc{{Name: "main", Start: 0, End: 3}},
	}
	if err := good.Validate(); err != nil {
		t.Errorf("valid program rejected: %v", err)
	}
	bad := &Program{Instrs: []Instr{{Op: J, Target: 5}}}
	if err := bad.Validate(); err == nil {
		t.Error("out-of-range target accepted")
	}
	badTab := &Program{Instrs: []Instr{{Op: JTAB, Table: 0}}}
	if err := badTab.Validate(); err == nil {
		t.Error("missing jump table accepted")
	}
	badProc := &Program{
		Instrs: make([]Instr, 4),
		Procs:  []Proc{{Name: "a", Start: 0, End: 3}, {Name: "b", Start: 2, End: 4}},
	}
	if err := badProc.Validate(); err == nil {
		t.Error("overlapping procedures accepted")
	}
}

// Property: every opcode's SrcRegs count is between 0 and 2 and DestReg
// never reports the zero register as written.
func TestSrcDestProperties(t *testing.T) {
	f := func(op8, rd, rs, rt uint8, imm int64) bool {
		in := Instr{
			Op:  Op(op8 % uint8(numOps)),
			Rd:  Reg(rd % NumRegs),
			Rs:  Reg(rs % NumRegs),
			Rt:  Reg(rt % NumRegs),
			Imm: imm,
		}
		_, _, _, n := in.SrcRegs()
		if n < 0 || n > 3 {
			return false
		}
		if d, ok := in.DestReg(); ok && d == RZero {
			return false
		}
		_ = in.String() // must not panic
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}
