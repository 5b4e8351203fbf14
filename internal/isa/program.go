package isa

import (
	"fmt"
	"sort"
	"strings"
)

// DataBase is the word address where the static data segment begins.
// Address 0 is reserved (never read or written by generated code) so that a
// zero base register with zero offset is distinguishable in diagnostics.
const DataBase = 1 << 10

// Proc names a contiguous range of instructions forming one procedure:
// [Start, End) in Program.Instrs.
type Proc struct {
	Name  string
	Start int
	End   int
}

// Program is a fully linked executable: instructions, initialized data,
// jump tables and symbol information.
type Program struct {
	Instrs []Instr
	Procs  []Proc
	// Data holds the initial contents of the data segment, loaded at
	// DataBase.  The VM's memory beyond it is zero.
	Data []int64
	// Tables holds jump tables for JTAB: Tables[t][i] is an instruction index.
	Tables [][]int
	// Symbols maps code labels to instruction indices.
	Symbols map[string]int
	// DataSyms maps data labels to word addresses.
	DataSyms map[string]int64
	// Entry is the instruction index where execution starts.
	Entry int
}

// ProcIndex returns the index into Procs of the procedure containing
// instruction idx, or -1 if none.
func (p *Program) ProcIndex(idx int) int {
	i := sort.Search(len(p.Procs), func(i int) bool { return p.Procs[i].End > idx })
	if i < len(p.Procs) && p.Procs[i].Start <= idx {
		return i
	}
	return -1
}

// ProcByName returns the procedure with the given name.
func (p *Program) ProcByName(name string) (Proc, bool) {
	for _, pr := range p.Procs {
		if pr.Name == name {
			return pr, true
		}
	}
	return Proc{}, false
}

// Disassemble renders the whole program as assembly source that
// internal/asm accepts again: data segment, jump tables, labels (synthetic
// ones are invented for branch targets that lack a symbol) and procedure
// markers.  Assembling the output reproduces an equivalent program.
func (p *Program) Disassemble() string {
	labelAt := make(map[int][]string)
	for sym, idx := range p.Symbols {
		labelAt[idx] = append(labelAt[idx], sym)
	}
	for _, syms := range labelAt {
		sort.Strings(syms)
	}
	// Every control-transfer target needs a label; invent one if missing.
	targetLabel := func(idx int) string {
		if syms := labelAt[idx]; len(syms) > 0 {
			return syms[0]
		}
		l := fmt.Sprintf("L_%d", idx)
		labelAt[idx] = []string{l}
		return l
	}
	type patchRef struct {
		instr int
		label string
	}
	var refs []patchRef
	for i := range p.Instrs {
		if p.Instrs[i].Op.HasTarget() {
			refs = append(refs, patchRef{i, targetLabel(p.Instrs[i].Target)})
		}
	}
	labelFor := make(map[int]string, len(refs))
	for _, r := range refs {
		labelFor[r.instr] = r.label
	}
	tableLabels := make([][]string, len(p.Tables))
	for t, tab := range p.Tables {
		tableLabels[t] = make([]string, len(tab))
		for k, idx := range tab {
			tableLabels[t][k] = targetLabel(idx)
		}
	}

	var b strings.Builder
	// Data segment, with symbol names where known and zero runs packed.
	// Symbols may legally point one past the end of the data (end markers),
	// so the section is emitted whenever any data or data symbol exists.
	if len(p.Data) > 0 || len(p.DataSyms) > 0 {
		b.WriteString(".data\n")
		symAt := make(map[int64][]string)
		for sym, addr := range p.DataSyms {
			symAt[addr] = append(symAt[addr], sym)
		}
		for _, syms := range symAt {
			sort.Strings(syms)
		}
		i := 0
		for i < len(p.Data) {
			addr := DataBase + int64(i)
			for _, sym := range symAt[addr] {
				fmt.Fprintf(&b, "%s:\n", sym)
			}
			// Pack a run of zeros with no interior symbols as .space.
			if p.Data[i] == 0 {
				j := i
				for j < len(p.Data) && p.Data[j] == 0 {
					if j > i {
						if _, hasSym := symAt[DataBase+int64(j)]; hasSym {
							break
						}
					}
					j++
				}
				if j-i >= 8 {
					fmt.Fprintf(&b, "\t.space %d\n", j-i)
					i = j
					continue
				}
			}
			fmt.Fprintf(&b, "\t.word %d\n", p.Data[i])
			i++
		}
		for _, sym := range symAt[DataBase+int64(len(p.Data))] {
			fmt.Fprintf(&b, "%s:\n", sym)
		}
		b.WriteString(".text\n")
	}
	for t, labels := range tableLabels {
		fmt.Fprintf(&b, ".jumptable T%d: %s\n", t, strings.Join(labels, " "))
	}

	procAt := make(map[int]string)
	procEnd := make(map[int]string)
	for _, pr := range p.Procs {
		procAt[pr.Start] = pr.Name
		procEnd[pr.End] = pr.Name
	}
	for i := range p.Instrs {
		if name, ok := procAt[i]; ok {
			fmt.Fprintf(&b, ".proc %s\n", name)
		}
		for _, sym := range labelAt[i] {
			if name, isProc := procAt[i]; isProc && name == sym {
				continue // .proc already defines this label
			}
			fmt.Fprintf(&b, "%s:\n", sym)
		}
		in := p.Instrs[i] // copy so the label can be substituted
		if l, ok := labelFor[i]; ok {
			in.TargetSym = l
		}
		fmt.Fprintf(&b, "\t%s\n", in.String())
		if name, ok := procEnd[i+1]; ok {
			fmt.Fprintf(&b, ".endproc %s\n", name)
		}
	}
	// A label may sit one past the last instruction, where only a jump
	// table can name it.
	for _, sym := range labelAt[len(p.Instrs)] {
		fmt.Fprintf(&b, "%s:\n", sym)
	}
	return b.String()
}

// Validate checks structural invariants: targets in range, jump tables in
// range, procedures non-overlapping and covering their instructions.
func (p *Program) Validate() error {
	n := len(p.Instrs)
	for i := range p.Instrs {
		in := &p.Instrs[i]
		switch {
		case in.Op.HasTarget():
			if in.Target < 0 || in.Target >= n {
				return fmt.Errorf("instr %d (%s): target %d out of range", i, in, in.Target)
			}
		case in.Op == JTAB:
			if in.Table < 0 || in.Table >= len(p.Tables) {
				return fmt.Errorf("instr %d (%s): table %d out of range", i, in, in.Table)
			}
			for _, t := range p.Tables[in.Table] {
				if t < 0 || t >= n {
					return fmt.Errorf("instr %d (%s): table entry %d out of range", i, in, t)
				}
			}
		}
	}
	prevEnd := 0
	for _, pr := range p.Procs {
		if pr.Start < prevEnd || pr.End <= pr.Start || pr.End > n {
			return fmt.Errorf("procedure %s: bad range [%d,%d)", pr.Name, pr.Start, pr.End)
		}
		prevEnd = pr.End
	}
	if p.Entry < 0 || p.Entry >= n {
		return fmt.Errorf("entry %d out of range", p.Entry)
	}
	return nil
}
