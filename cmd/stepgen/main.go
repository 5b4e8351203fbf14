// Command stepgen generates the specialized columnar analyzer steppers
// in internal/limits/step_gen.go.
//
// The generic limits.StepAnnotated pays, on every one of the ~10⁶
// events × 14 analyzer instances of a benchmark, a dense control-kind
// switch, model capability tests, misprediction-lane checks and a
// latency-table test — even though every one of those choices is a
// constant of the analyzer's machine model.  stepgen folds them away
// at build time: for each of the paper's seven machine models it emits
// one branch-free chunk stepper that streams the columnar lanes of a
// limits.Chunk, plus the dispatch table limits.NewAnalyzerConfig
// resolves once at construction.
//
// Perfect unrolling is a trace filter, not a model: a stepper loads
// the analyzer's attention and skip masks once per chunk, so one copy
// of the loop serves both unroll settings.  Latency tables are an
// ablation; analyzers with one run the generic loop.
//
// The emitted code is derived mechanically from the generic
// StepAnnotated (the equivalence oracle): each specialization is the
// generic body with the model's constants substituted and the dead
// branches deleted.  step_gen_test.go pins generated-vs-generic result
// equality for every model and unroll setting, and `make
// generate-check` fails the build when the committed output drifts
// from this generator.
//
// Usage (normally via `go generate ./internal/limits` or `make generate`):
//
//	go run ilplimit/cmd/stepgen -out internal/limits/step_gen.go
package main

import (
	"bytes"
	"flag"
	"fmt"
	"go/format"
	"log"
	"os"
)

// modelSpec describes one machine model's constants: exactly the facts
// NewAnalyzerConfig derives from limits.Model and the generator folds
// into the emitted stepper.
type modelSpec struct {
	// ident is the limits.Model constant name (and function-name stem).
	ident string
	// paper is the paper's model name, for comments.
	paper string
	// ctrl selects the control-constraint emission (the folded
	// ctrlKind): none, lastBranch, cdOrdered, cd, lastMispred,
	// cdMispredOrdered or cdMispred.
	ctrl string
	// needCD: the model tracks dynamic control dependences (leader
	// handling, call/return stack, rec table).
	needCD bool
	// spec: the model speculates, so branch events carry a
	// misprediction fact in the analyzer's predictor lane.
	spec bool
	// segments: the model aggregates misprediction-distance segments
	// (SP only; NewAnalyzerConfig sets trackSegments iff model == SP).
	segments bool
	// updBranchT: some constraint of this model reads lastBranchT, so
	// branch completion must keep it current.
	updBranchT bool
	// updMispredT: some constraint reads lastMispredT.
	updMispredT bool
}

// models lists the paper's seven machines with the constants the
// generic path re-derives per event.
var models = []modelSpec{
	{ident: "Base", paper: "BASE", ctrl: "lastBranch", updBranchT: true},
	{ident: "CD", paper: "CD", ctrl: "cdOrdered", needCD: true, updBranchT: true},
	{ident: "CDMF", paper: "CD-MF", ctrl: "cd", needCD: true},
	{ident: "SP", paper: "SP", ctrl: "lastMispred", spec: true, segments: true, updMispredT: true},
	{ident: "SPCD", paper: "SP-CD", ctrl: "cdMispredOrdered", needCD: true, spec: true, updMispredT: true},
	{ident: "SPCDMF", paper: "SP-CD-MF", ctrl: "cdMispred", needCD: true, spec: true},
	{ident: "Oracle", paper: "ORACLE", ctrl: "none"},
}

// gen accumulates emitted source; go/format normalizes the layout.
type gen struct {
	buf bytes.Buffer
}

// p emits one line.
func (g *gen) p(format string, args ...interface{}) {
	fmt.Fprintf(&g.buf, format, args...)
	g.buf.WriteByte('\n')
}

// funcName builds the stepper identifier for one model.
func funcName(m modelSpec) string {
	return "step" + m.ident
}

// emitStepper writes one model's chunk stepper.  The body is the
// generic StepAnnotated with the model's constants folded: dead model
// branches deleted, the filter masks loaded once per chunk, and the
// per-event count/maxT updates hoisted to chunk-local accumulators.
func emitStepper(g *gen, m modelSpec) {
	name := funcName(m)
	// isBr is needed beyond the mispred computation whenever the model
	// reacts to branch completion (rec table, branch-ordering times) or
	// orders branches in its constraint.
	needIsBr := m.updBranchT || m.needCD || m.ctrl == "cdOrdered"
	needMispred := m.spec

	g.p("// %s schedules one columnar chunk under %s, unit latency.", name, m.paper)
	g.p("func %s(a *Analyzer, c *Chunk) {", name)
	g.p("idxL := c.idx")
	g.p("addrL := c.addr[:len(idxL)]")
	g.p("flagsL := c.flags[:len(idxL)]")
	g.p("meta := a.st.meta")
	g.p("attention, skip := a.attention, a.skip")
	g.p("count, maxT := a.count, a.maxT")
	g.p("for i := range idxL {")
	g.p("flags := flagsL[i]")
	// Models without control-dependence tracking never read meta on the
	// attention path, so the (potentially cache-missing) meta load is
	// deferred past it: skipped events never touch the table.
	if m.needCD {
		g.p("m := &meta[idxL[i]]")
	}

	// Attention block: leaders (CD models), calls/returns, filtered
	// instructions.
	g.p("if flags&attention != 0 {")
	if m.needCD {
		g.p("if flags&FlagLeader != 0 {")
		g.p("a.enterBlock(m.block)")
		g.p("}")
	}
	g.p("if flags&FlagCall != 0 {")
	if m.needCD {
		g.p("a.stack = append(a.stack, frame{")
		g.p("savedCD:       a.curCD,")
		g.p("savedInherit:  a.inheritCD,")
		g.p("savedProcSeq:  a.curProcSeq,")
		g.p("savedBlockSeq: a.curBlockSeq,")
		g.p("})")
		g.p("a.inheritCD = a.curCD")
		g.p("a.curProcSeq = a.seqCounter + 1")
	}
	g.p("continue")
	g.p("}")
	g.p("if flags&FlagReturn != 0 {")
	if m.needCD {
		g.p("if n := len(a.stack); n > 0 {")
		g.p("f := a.stack[n-1]")
		g.p("a.stack = a.stack[:n-1]")
		g.p("a.curCD = f.savedCD")
		g.p("a.inheritCD = f.savedInherit")
		g.p("a.curProcSeq = f.savedProcSeq")
		g.p("a.curBlockSeq = f.savedBlockSeq")
		g.p("}")
	}
	g.p("continue")
	g.p("}")
	g.p("if flags&skip != 0 {")
	if m.needCD {
		g.p("if flags&FlagBranch != 0 {")
		g.p("// A removed loop branch is transparent: dependents inherit")
		g.p("// the branch's own control dependence.")
		g.p("a.rec[m.block] = blockRec{")
		g.p("seq:      a.curBlockSeq,")
		g.p("termT:    a.curCD.time,")
		g.p("mispredT: a.curCD.mispredT,")
		g.p("procSeq:  a.curProcSeq,")
		g.p("}")
		g.p("}")
	}
	g.p("continue")
	g.p("}")
	g.p("}")

	if !m.needCD {
		g.p("m := &meta[idxL[i]]")
	}
	// Data dependences, branch-free: SrcRegs zero-fills unused operand
	// slots and regTime[0] is pinned to 0, so maxing over all three is
	// the nsrc-guarded max without the data-dependent branch ladder.
	// The &regIndexMask makes the in-range indices provable.
	g.p("t := a.regTime[m.src1&regIndexMask]")
	g.p("if rt := a.regTime[m.src2&regIndexMask]; rt > t {")
	g.p("t = rt")
	g.p("}")
	g.p("if rt := a.regTime[m.src3&regIndexMask]; rt > t {")
	g.p("t = rt")
	g.p("}")
	g.p("if flags&FlagLoad != 0 {")
	g.p("if mt := a.memTime.load(int64(addrL[i])); mt > t {")
	g.p("t = mt")
	g.p("}")
	g.p("}")

	// Branch facts, folded to what this model consumes.
	if needIsBr {
		g.p("isBr := flags&FlagBranch != 0")
	}
	if needMispred {
		if needIsBr {
			g.p("mispred := isBr && flags&a.mispredMask != 0")
		} else {
			g.p("mispred := flags&FlagBranch != 0 && flags&a.mispredMask != 0")
		}
	}

	// Control-flow constraint: the folded ctrlKind switch arm.
	switch m.ctrl {
	case "none":
		// Oracle: data dependences only.
	case "lastBranch":
		g.p("if ctrl := a.lastBranchT; ctrl > t {")
		g.p("t = ctrl")
		g.p("}")
	case "cdOrdered":
		g.p("ctrl := a.curCD.time")
		g.p("if isBr && a.lastBranchT > ctrl {")
		g.p("ctrl = a.lastBranchT")
		g.p("}")
		g.p("if ctrl > t {")
		g.p("t = ctrl")
		g.p("}")
	case "cd":
		g.p("if ctrl := a.curCD.time; ctrl > t {")
		g.p("t = ctrl")
		g.p("}")
	case "lastMispred":
		g.p("if ctrl := a.lastMispredT; ctrl > t {")
		g.p("t = ctrl")
		g.p("}")
	case "cdMispredOrdered":
		g.p("ctrl := a.curCD.mispredT")
		g.p("if mispred && a.lastMispredT > ctrl {")
		g.p("ctrl = a.lastMispredT")
		g.p("}")
		g.p("if ctrl > t {")
		g.p("t = ctrl")
		g.p("}")
	case "cdMispred":
		g.p("if ctrl := a.curCD.mispredT; ctrl > t {")
		g.p("t = ctrl")
		g.p("}")
	default:
		log.Fatalf("unknown ctrl kind %q", m.ctrl)
	}

	// Issue and completion time: unit latency, so C = T = t+1.
	g.p("C := t + 1")

	// Record the schedule.  The destination store is unconditional — a
	// zero-register write lands in slot 0 and is immediately re-zeroed,
	// preserving the regTime[0]==0 invariant the source max relies on —
	// trading the unpredictable d!=0 branch for one L1 store.
	g.p("a.regTime[m.dest&regIndexMask] = C")
	g.p("a.regTime[0] = 0")
	g.p("if flags&FlagStore != 0 {")
	g.p("a.memTime.store(int64(addrL[i]), C)")
	g.p("}")
	g.p("count++")
	g.p("if C > maxT {")
	g.p("maxT = C")
	g.p("}")
	if m.segments {
		g.p("a.segCount++")
		g.p("if C > a.segMax {")
		g.p("a.segMax = C")
		g.p("}")
	}

	// Branch completion: only the state this model's constraints (or
	// its rec table) read back is kept current.
	switch {
	case m.needCD && m.spec:
		g.p("if isBr {")
		if m.updBranchT {
			g.p("a.lastBranchT = C")
		}
		g.p("mt := a.curCD.mispredT")
		g.p("if mispred {")
		g.p("mt = C")
		g.p("}")
		emitRec(g, "C", "mt")
		if m.updMispredT {
			g.p("if mispred {")
			g.p("a.lastMispredT = C")
			g.p("}")
		}
		g.p("}")
	case m.needCD:
		g.p("if isBr {")
		if m.updBranchT {
			g.p("a.lastBranchT = C")
		}
		emitRec(g, "C", "a.curCD.mispredT")
		g.p("}")
	case m.spec:
		if m.updBranchT {
			g.p("if isBr {")
			g.p("a.lastBranchT = C")
			g.p("}")
		}
		g.p("if mispred {")
		g.p("a.lastMispredT = C")
		if m.segments {
			g.p("a.closeSegment()")
		}
		g.p("}")
	case m.updBranchT:
		g.p("if isBr {")
		g.p("a.lastBranchT = C")
		g.p("}")
	}

	g.p("}")
	g.p("a.count, a.maxT = count, maxT")
	g.p("}")
	g.p("")
}

// emitRec writes the per-block terminator record update.
func emitRec(g *gen, termT, mispredT string) {
	g.p("a.rec[m.block] = blockRec{")
	g.p("seq:      a.curBlockSeq,")
	g.p("termT:    %s,", termT)
	g.p("mispredT: %s,", mispredT)
	g.p("procSeq:  a.curProcSeq,")
	g.p("}")
}

func main() {
	out := flag.String("out", "step_gen.go", "output file (package limits)")
	flag.Parse()

	g := &gen{}
	g.p("// Code generated by cmd/stepgen; DO NOT EDIT.")
	g.p("")
	g.p("// Specialized columnar analyzer steppers: one branch-free chunk")
	g.p("// stepper per machine model, derived from the generic StepAnnotated")
	g.p("// with the model's constants folded away.  Regenerate with `make")
	g.p("// generate` (or `go generate ./internal/limits`); `make")
	g.p("// generate-check` fails when this file drifts from cmd/stepgen.")
	g.p("package limits")
	g.p("")
	g.p("import \"ilplimit/internal/isa\"")
	g.p("")
	g.p("// regIndexMask bounds register indices without a bounds check; the")
	g.p("// blank assert requires isa.NumRegs to be a power of two, so masking")
	g.p("// is the identity on every valid register number.")
	g.p("const regIndexMask = isa.NumRegs - 1")
	g.p("")
	g.p("var _ = [1]struct{}{}[isa.NumRegs&(isa.NumRegs-1)]")
	g.p("")
	for _, m := range models {
		emitStepper(g, m)
	}

	g.p("// steppers dispatches the generated specializations by model.")
	g.p("var steppers = [NumModels]func(*Analyzer, *Chunk){")
	for _, m := range models {
		g.p("%s: %s,", m.ident, funcName(m))
	}
	g.p("}")
	g.p("")
	g.p("// stepperFor resolves the specialized columnar stepper for one")
	g.p("// model, or nil for models outside the generated set.  The")
	g.p("// specializations assume the construction-time invariants")
	g.p("// NewAnalyzerConfig guarantees when it installs one — unbounded")
	g.p("// window, no width tracking, unit latency — plus the per-chunk")
	g.p("// preconditions StepChunk checks before dispatching (no OnSchedule")
	g.p("// callback, and a resolved predictor lane for speculative models).")
	g.p("func stepperFor(m Model) func(*Analyzer, *Chunk) {")
	g.p("if m < 0 || int(m) >= NumModels {")
	g.p("return nil")
	g.p("}")
	g.p("return steppers[m]")
	g.p("}")

	src, err := format.Source(g.buf.Bytes())
	if err != nil {
		// Emit the unformatted source anyway so the syntax error is
		// inspectable at the reported line.
		os.WriteFile(*out, g.buf.Bytes(), 0o644)
		log.Fatalf("stepgen: generated code does not format: %v", err)
	}
	if err := os.WriteFile(*out, src, 0o644); err != nil {
		log.Fatalf("stepgen: %v", err)
	}
}
