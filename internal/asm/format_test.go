package asm

import (
	"fmt"
	"slices"
	"testing"

	"ilplimit/internal/isa"
)

// TestEveryOpcodeRoundTrips covers every mnemonic: it builds the
// opcode's operands from its isa.Format, prints the instruction,
// assembles the text back and expects the same Instr.  SrcRegs and
// DestReg must name exactly the format's register operands, plus $ra
// for a call.
func TestEveryOpcodeRoundTrips(t *testing.T) {
	rd, rs, rt := isa.RS0, isa.RT0, isa.RA1
	for op := isa.Op(0); int(op) < isa.NumOps; op++ {
		in := isa.Instr{Op: op}
		var reads []isa.Reg
		write, writes := isa.RRA, op.IsCall()
		for _, arg := range op.Format() {
			switch arg {
			case isa.ArgRd, isa.ArgGuardRd:
				in.Rd, write, writes = rd, rd, true
				if arg == isa.ArgGuardRd {
					reads = append(reads, rd)
				}
			case isa.ArgRs:
				in.Rs = rs
				reads = append(reads, rs)
			case isa.ArgRt:
				in.Rt = rt
				reads = append(reads, rt)
			case isa.ArgImm:
				in.Imm = -42
			case isa.ArgData:
				in.TargetSym, in.Imm = "buf", isa.DataBase+2
			case isa.ArgFloat:
				in.FImm = 2.5e-3
			case isa.ArgMem:
				in.Rs, in.Imm = isa.RSP, 3
				reads = append(reads, isa.RSP)
			case isa.ArgLabel:
				in.TargetSym, in.Target = "end", 1
			case isa.ArgTable:
				in.Table = 1
			default:
				t.Fatalf("%v: unknown operand kind %d", op, arg)
			}
		}
		src := fmt.Sprintf(".data\n\t.word 0 0\nbuf:\t.word 0\n.text\n"+
			".jumptable T0: main\n.jumptable T1: end\n.proc main\n\t%s\nend:\thalt\n.endproc\n", in.String())
		p, err := Assemble(src)
		if err != nil {
			t.Errorf("%v: %q does not assemble: %v", op, in.String(), err)
			continue
		}
		if got := p.Instrs[0]; got != in {
			t.Errorf("%v: %q assembles to %+v, want %+v", op, in.String(), got, in)
		}

		a, b, c, n := in.SrcRegs()
		if got := []isa.Reg{a, b, c}[:n]; !sameRegs(got, reads) {
			t.Errorf("%v: SrcRegs = %v, want %v", op, got, reads)
		}
		if d, ok := in.DestReg(); ok != writes || (ok && d != write) {
			t.Errorf("%v: DestReg = (%v, %v), want (%v, %v)", op, d, ok, write, writes)
		}
	}
}

// sameRegs reports whether x and y hold the same registers, in any order.
func sameRegs(x, y []isa.Reg) bool {
	x, y = slices.Clone(x), slices.Clone(y)
	slices.Sort(x)
	slices.Sort(y)
	return slices.Equal(x, y)
}
