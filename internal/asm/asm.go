package asm

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"ilplimit/internal/isa"
)

// Assemble translates assembly source into an executable program.
// Execution starts at "_start" if defined, otherwise at "main",
// otherwise at instruction 0.
func Assemble(src string) (*isa.Program, error) {
	a := &assembler{
		prog: &isa.Program{
			Symbols:  make(map[string]int),
			DataSyms: make(map[string]int64),
		},
		tableIdx: make(map[string]int),
	}
	if err := a.firstPass(src); err != nil {
		return nil, err
	}
	if err := a.resolve(); err != nil {
		return nil, err
	}
	if err := a.prog.Validate(); err != nil {
		return nil, fmt.Errorf("assembled program invalid: %w", err)
	}
	return a.prog, nil
}

type patch struct {
	instr int    // instruction index to patch
	label string // code label to resolve into Target
	line  int
}

type tablePatch struct {
	table int
	slot  int
	label string
	line  int
}

// laPatch fixes up an LA instruction with the address of a data symbol.
type laPatch struct {
	instr int
	label string
	line  int
}

// jtPatch fixes up a JTAB instruction with the index of a named jump table.
type jtPatch struct {
	instr int
	name  string
	line  int
}

type assembler struct {
	prog      *isa.Program
	patches   []patch
	tpatches  []tablePatch
	laPatches []laPatch
	jtPatches []jtPatch
	inData    bool
	curProc   string
	procStart int
	tableIdx  map[string]int
}

// maxDataWords bounds the data segment that .space can reserve, 64
// times the largest suite program's at any scale.  The daemon assembles
// client-supplied programs, and a size the heap cannot hold would
// otherwise end the process.
const maxDataWords = 1 << 24

func (a *assembler) errf(line int, format string, args ...interface{}) error {
	return fmt.Errorf("line %d: %s", line, fmt.Sprintf(format, args...))
}

func (a *assembler) firstPass(src string) error {
	lines := strings.Split(src, "\n")
	for li, raw := range lines {
		lineNo := li + 1
		line := raw
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		// Peel off leading labels.
		for {
			i := strings.IndexByte(line, ':')
			if i < 0 {
				break
			}
			head := strings.TrimSpace(line[:i])
			if !isIdent(head) {
				break
			}
			if err := a.defineLabel(head, lineNo); err != nil {
				return err
			}
			line = strings.TrimSpace(line[i+1:])
		}
		if line == "" {
			continue
		}
		if line[0] == '.' {
			if err := a.directive(line, lines, lineNo); err != nil {
				return err
			}
			continue
		}
		if a.inData {
			return a.errf(lineNo, "instruction in data segment: %q", line)
		}
		if err := a.instruction(line, lineNo); err != nil {
			return err
		}
	}
	if a.curProc != "" {
		return fmt.Errorf("procedure %s not closed with .endproc", a.curProc)
	}
	return nil
}

func (a *assembler) defineLabel(name string, line int) error {
	if a.inData {
		if _, dup := a.prog.DataSyms[name]; dup {
			return a.errf(line, "duplicate data label %q", name)
		}
		a.prog.DataSyms[name] = isa.DataBase + int64(len(a.prog.Data))
		return nil
	}
	if at, dup := a.prog.Symbols[name]; dup {
		// Tolerate "name:" right after ".proc name": same location.
		if at == len(a.prog.Instrs) {
			return nil
		}
		return a.errf(line, "duplicate label %q", name)
	}
	a.prog.Symbols[name] = len(a.prog.Instrs)
	return nil
}

func (a *assembler) directive(line string, _ []string, lineNo int) error {
	fields := strings.Fields(line)
	switch fields[0] {
	case ".data":
		a.inData = true
	case ".text":
		a.inData = false
	case ".word":
		if !a.inData {
			return a.errf(lineNo, ".word outside .data")
		}
		for _, f := range fields[1:] {
			w, err := parseWord(f)
			if err != nil {
				return a.errf(lineNo, "bad .word value %q: %v", f, err)
			}
			a.prog.Data = append(a.prog.Data, w)
		}
	case ".space":
		if !a.inData {
			return a.errf(lineNo, ".space outside .data")
		}
		if len(fields) != 2 {
			return a.errf(lineNo, ".space needs one size")
		}
		n, err := strconv.Atoi(fields[1])
		if err != nil || n < 0 {
			return a.errf(lineNo, "bad .space size %q", fields[1])
		}
		if n > maxDataWords-len(a.prog.Data) {
			return a.errf(lineNo, ".space %d: data segment would exceed %d words", n, maxDataWords)
		}
		a.prog.Data = append(a.prog.Data, make([]int64, n)...)
	case ".proc":
		if len(fields) != 2 {
			return a.errf(lineNo, ".proc needs a name")
		}
		if !isIdent(fields[1]) {
			return a.errf(lineNo, "bad procedure name %q", fields[1])
		}
		if a.curProc != "" {
			return a.errf(lineNo, "nested .proc %s inside %s", fields[1], a.curProc)
		}
		a.inData = false
		a.curProc = fields[1]
		a.procStart = len(a.prog.Instrs)
		if _, dup := a.prog.Symbols[a.curProc]; !dup {
			a.prog.Symbols[a.curProc] = a.procStart
		}
	case ".endproc":
		if a.curProc == "" {
			return a.errf(lineNo, ".endproc without .proc")
		}
		if len(a.prog.Instrs) == a.procStart {
			return a.errf(lineNo, "procedure %s is empty", a.curProc)
		}
		a.prog.Procs = append(a.prog.Procs, isa.Proc{
			Name: a.curProc, Start: a.procStart, End: len(a.prog.Instrs),
		})
		a.curProc = ""
	case ".jumptable":
		// .jumptable name: L0 L1 L2 …
		rest := strings.TrimSpace(strings.TrimPrefix(line, ".jumptable"))
		i := strings.IndexByte(rest, ':')
		if i < 0 {
			return a.errf(lineNo, ".jumptable needs \"name: labels…\"")
		}
		name := strings.TrimSpace(rest[:i])
		if !isIdent(name) {
			return a.errf(lineNo, "bad jump table name %q", name)
		}
		if _, dup := a.tableIdx[name]; dup {
			return a.errf(lineNo, "duplicate jump table %q", name)
		}
		labels := strings.Fields(rest[i+1:])
		if len(labels) == 0 {
			return a.errf(lineNo, "jump table %q is empty", name)
		}
		t := len(a.prog.Tables)
		a.tableIdx[name] = t
		a.prog.Tables = append(a.prog.Tables, make([]int, len(labels)))
		for slot, lab := range labels {
			a.tpatches = append(a.tpatches, tablePatch{table: t, slot: slot, label: lab, line: lineNo})
		}
	default:
		return a.errf(lineNo, "unknown directive %q", fields[0])
	}
	return nil
}

func parseWord(s string) (int64, error) {
	if strings.ContainsAny(s, ".eE") && !strings.HasPrefix(s, "0x") {
		f, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return 0, err
		}
		return int64(math.Float64bits(f)), nil
	}
	return strconv.ParseInt(s, 0, 64)
}

func isIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == '$', c == '.':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func (a *assembler) resolve() error {
	for _, p := range a.patches {
		idx, ok := a.prog.Symbols[p.label]
		if !ok {
			return a.errf(p.line, "undefined label %q", p.label)
		}
		a.prog.Instrs[p.instr].Target = idx
	}
	for _, tp := range a.tpatches {
		idx, ok := a.prog.Symbols[tp.label]
		if !ok {
			return a.errf(tp.line, "undefined label %q in jump table", tp.label)
		}
		a.prog.Tables[tp.table][tp.slot] = idx
	}
	for _, lp := range a.laPatches {
		addr, ok := a.prog.DataSyms[lp.label]
		if !ok {
			return a.errf(lp.line, "undefined data symbol %q", lp.label)
		}
		a.prog.Instrs[lp.instr].Imm = addr
	}
	for _, jp := range a.jtPatches {
		t, ok := a.tableIdx[jp.name]
		if !ok {
			return a.errf(jp.line, "undefined jump table %q", jp.name)
		}
		a.prog.Instrs[jp.instr].Table = t
	}
	if e, ok := a.prog.Symbols["_start"]; ok {
		a.prog.Entry = e
	} else if e, ok := a.prog.Symbols["main"]; ok {
		a.prog.Entry = e
	}
	return nil
}
