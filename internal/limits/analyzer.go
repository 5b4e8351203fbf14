package limits

import (
	"fmt"

	"ilplimit/internal/isa"
	"ilplimit/internal/vm"
)

// cdInfo identifies one dynamic branch instance acting as a control
// dependence, together with the times the models constrain on.
// The zero value means "no control dependence".
type cdInfo struct {
	// time is the execution cycle of the branch instance.
	time int64
	// mispredT is the execution cycle of the nearest mispredicted branch
	// among the instance's control-dependence ancestors, including itself
	// (0 when every ancestor was predicted correctly).
	mispredT int64
	// seq is the basic-block instance sequence number of the branch, used
	// to pick the most recent candidate (paper §4.4.1).
	seq int64
}

// blockRec is the per-static-block record of its most recent dynamic
// instance whose terminator has executed.
type blockRec struct {
	seq      int64
	termT    int64
	mispredT int64
	// procSeq is the sequence number at the start of the procedure
	// invocation that executed the instance (recursion detection).
	procSeq int64
}

// frame is one interprocedural control-dependence stack entry, saved at a
// call and restored at the matching return.
type frame struct {
	savedCD       cdInfo
	savedInherit  cdInfo
	savedProcSeq  int64
	savedBlockSeq int64
}

// Config extends an analysis beyond the paper's baseline assumptions,
// enabling the ablation studies the paper argues about in §5:
//
//   - Window bounds the scheduling window.  The paper uses an unbounded
//     window (Window == 0) and credits it for exposing global parallelism;
//     a finite window W forbids an instruction from executing before the
//     instruction W positions earlier in the trace has executed.
//   - Latency assigns each opcode a latency in cycles (nil means the
//     paper's unit latency).  Non-unit latencies consume parallelism to
//     fill pipeline bubbles, which the paper notes makes speedups
//     underestimate parallelism.  An analyzer with a latency table
//     steps the generic StepAnnotated loop, as a finite window does;
//     fused sets (fused.go) assume unit latency.
type Config struct {
	Model     Model
	Unrolling bool
	MemWords  int
	Window    int
	Latency   func(op isa.Op) int64
	// TrackWidths records how many instructions issue in each cycle,
	// populating Result.Widths — the machine width the limit implies.
	TrackWidths bool
}

// DefaultLatencies is a realistic latency model in the spirit of the
// R3000-era machines the paper contrasts against: unit ALU, 2-cycle loads,
// multi-cycle multiply/divide and floating point.
func DefaultLatencies(op isa.Op) int64 {
	switch op {
	case isa.LW, isa.FLW:
		return 2
	case isa.MUL, isa.MULI:
		return 3
	case isa.DIV, isa.REM:
		return 12
	case isa.FADD, isa.FSUB, isa.CVTIF, isa.CVTFI:
		return 2
	case isa.FMUL:
		return 4
	case isa.FDIV:
		return 12
	case isa.FSQRT:
		return 14
	default:
		return 1
	}
}

// Analyzer schedules one dynamic trace under one machine model.
// Feed it every VM event via Step (or pre-decoded events via
// StepAnnotated), then read Result.
type Analyzer struct {
	st        *Static
	model     Model
	unrolling bool
	window    int
	ring      []int64 // completion times of the last `window` instructions
	ringPos   int

	// Annotated fast-path dispatch state, fixed at construction.
	// skip masks the flags that remove an event from the schedule for
	// this analyzer (inline filter, plus the unroll filter when
	// unrolling); attention additionally covers call/return and — for
	// CD models — block leaders, so the loop tests one mask to bypass
	// the whole slow block.  Both are set only at construction.
	skip      uint32
	attention uint32
	// mispredMask selects this analyzer's predictor lane bit in
	// AnnotatedEvent.Flags.
	mispredMask uint32
	// latTab is the per-opcode latency table (nil for unit latency).
	latTab []int64
	// phase records whether the analyzer has been stepped, and how: a
	// replay fuses only fresh analyzers, and a fused member, whose
	// tables its set kept, can never step on its own.
	phase phase

	// Greedy schedule state: last-write times.  memTime is paged so the
	// per-analyzer footprint tracks the benchmark's working set instead of
	// the full simulated memory (see paged.go).
	regTime [isa.NumRegs]int64
	memTime timeTable

	// Dynamic control-dependence state.
	rec         []blockRec
	seqCounter  int64
	curBlockSeq int64
	curProcSeq  int64
	curCD       cdInfo // CD of the current basic-block instance
	inheritCD   cdInfo // CD inherited by the current procedure invocation
	stack       []frame

	// Branch-ordering state.
	lastBranchT  int64
	lastMispredT int64

	// Results.
	count          int64
	maxT           int64
	recursionDrops int64
	widths         []int32 // instructions issued per cycle (1-indexed by T)

	// Segment statistics (SP model only).
	trackSegments bool
	seg           segStats

	needCD bool
	spec   bool

	// OnSchedule, when set, is called with the static index and execution
	// cycle of every scheduled instruction (removed instructions are not
	// reported).  Used by the worked-example tooling to print schedules.
	OnSchedule func(idx int32, cycle int64)
}

// NewAnalyzer creates an analyzer with the paper's baseline assumptions
// (unbounded window, unit latency).  memWords must cover every address the
// trace can touch (use the VM memory size).  Set unrolling to apply the
// perfect-loop-unrolling filter.
func NewAnalyzer(st *Static, model Model, unrolling bool, memWords int) *Analyzer {
	return NewAnalyzerConfig(st, Config{Model: model, Unrolling: unrolling, MemWords: memWords})
}

// NewAnalyzerConfig creates an analyzer with explicit ablation settings.
func NewAnalyzerConfig(st *Static, cfg Config) *Analyzer {
	a := &Analyzer{
		st:        st,
		model:     cfg.Model,
		unrolling: cfg.Unrolling,
		window:    cfg.Window,
		memTime:   newTimeTable(cfg.MemWords),
		rec:       make([]blockRec, st.numBlocks),
		needCD:    cfg.Model.usesCD(),
		spec:      cfg.Model.usesSpec(),
	}
	a.skip = FlagInline
	if cfg.Unrolling {
		a.skip |= FlagUnroll
	}
	a.attention = a.skip | FlagCall | FlagReturn
	if a.needCD {
		a.attention |= FlagLeader
	}
	a.setLane(0)
	if cfg.Latency != nil {
		a.latTab = make([]int64, isa.NumOps)
		for op := range a.latTab {
			a.latTab[op] = cfg.Latency(isa.Op(op))
		}
	}
	if a.window > 0 {
		a.ring = make([]int64, a.window)
	}
	if cfg.TrackWidths {
		a.widths = make([]int32, 1024)
	}
	a.curProcSeq = 1
	if cfg.Model == SP {
		a.trackSegments = true
		a.seg.aggs = make(map[int64]SegAgg)
	}
	if a.spec && st.Pred == nil {
		panic("limits: speculative model requires a predictor")
	}
	return a
}

// phase is an analyzer's stepping history.
type phase uint8

const (
	phaseFresh   phase = iota // never stepped: a replay may fuse it
	phaseStepped              // stepped on the generic loop
	phaseFused                // a member of a fused set
)

// Model returns the machine model this analyzer simulates.
func (a *Analyzer) Model() Model { return a.model }

// setLane assigns the analyzer's predictor lane in the annotated event
// flags.
func (a *Analyzer) setLane(lane int) { a.mispredMask = 1 << (laneShift + uint(lane)) }

// Step schedules one dynamic instruction from a raw VM event.  It
// derives the event's annotation inline — the fused metadata flags plus
// this analyzer's own misprediction lane — and delegates to
// StepAnnotated, so standalone steppers compute results bit-identical
// to pre-decoded replays.
func (a *Analyzer) Step(ev vm.Event) {
	flags := a.st.meta[ev.Idx].flags
	if ev.Taken {
		flags |= FlagTaken
	}
	if a.spec && flags&FlagBranch != 0 && a.st.Pred.Mispredicted(ev) {
		flags |= a.mispredMask
	}
	a.StepAnnotated(AnnotatedEvent{Seq: ev.Seq, Addr: ev.Addr, Idx: ev.Idx, Flags: flags})
}

// StepChunk schedules every event of one columnar chunk through the
// generic StepAnnotated loop.  Replays step their fast-configured
// analyzers in fused sets instead (ReplayWith, ReplayChunks); a direct
// StepChunk call always runs the generic loop, with identical results.
func (a *Analyzer) StepChunk(c *Chunk) {
	for i, n := 0, c.Len(); i < n; i++ {
		a.StepAnnotated(c.At(i))
	}
}

// StepAnnotated schedules one pre-decoded dynamic instruction — the
// generic scheduling loop, and the equivalence oracle for fused sets.
// All per-event facts arrive resolved in the annotation and the fused
// metadata record, so the common case (a plain scheduled instruction)
// runs branch-light: one attention-mask test bypasses the
// block/call/filter handling, operands come from one 16-byte metadata
// load, and the model's control constraint is a dense switch on the
// model.  It panics on an analyzer a replay stepped in a fused set.
func (a *Analyzer) StepAnnotated(ae AnnotatedEvent) {
	if a.phase != phaseStepped {
		a.markStepped()
	}
	flags := ae.Flags
	m := &a.st.meta[ae.Idx]

	// Events needing attention beyond pure scheduling: block leaders
	// (CD models), calls/returns (control-dependence stack), and
	// instructions the inline/unroll filters remove.
	if flags&a.attention != 0 {
		if a.needCD && flags&FlagLeader != 0 {
			a.enterBlock(m.block)
		}
		// Calls and returns never schedule (the inlining filter removes
		// them) but they drive the interprocedural control-dependence
		// stack.
		if flags&FlagCall != 0 {
			if a.needCD {
				a.stack = append(a.stack, frame{
					savedCD:       a.curCD,
					savedInherit:  a.inheritCD,
					savedProcSeq:  a.curProcSeq,
					savedBlockSeq: a.curBlockSeq,
				})
				a.inheritCD = a.curCD
				a.curProcSeq = a.seqCounter + 1
			}
			return
		}
		if flags&FlagReturn != 0 {
			if a.needCD {
				if n := len(a.stack); n > 0 {
					f := a.stack[n-1]
					a.stack = a.stack[:n-1]
					a.curCD = f.savedCD
					a.inheritCD = f.savedInherit
					a.curProcSeq = f.savedProcSeq
					a.curBlockSeq = f.savedBlockSeq
				}
			}
			return
		}
		if flags&a.skip != 0 {
			if flags&FlagBranch != 0 && a.needCD {
				// A loop branch removed by perfect unrolling is transparent:
				// dependents inherit the branch's own control dependence
				// instead of waiting for the branch.
				a.rec[m.block] = blockRec{
					seq:      a.curBlockSeq,
					termT:    a.curCD.time,
					mispredT: a.curCD.mispredT,
					procSeq:  a.curProcSeq,
				}
			}
			return
		}
	}

	// Data dependences: sources plus, for loads, the last write to the
	// effective address.
	var t int64
	if n := m.nsrc; n > 0 {
		if rt := a.regTime[m.src1]; rt > t {
			t = rt
		}
		if n > 1 {
			if rt := a.regTime[m.src2]; rt > t {
				t = rt
			}
			if n > 2 {
				if rt := a.regTime[m.src3]; rt > t {
					t = rt
				}
			}
		}
	}
	if flags&FlagLoad != 0 {
		if mt := a.memTime.load(ae.Addr); mt > t {
			t = mt
		}
	}

	// Control-flow constraint: the annotation carries this analyzer's
	// misprediction fact in its predictor lane bit.
	isBr := flags&FlagBranch != 0
	mispred := a.spec && isBr && flags&a.mispredMask != 0
	var ctrl int64
	switch a.model {
	case Base: // every prior branch serializes
		ctrl = a.lastBranchT
	case CD: // control dependence, branches ordered
		ctrl = a.curCD.time
		if isBr && a.lastBranchT > ctrl {
			ctrl = a.lastBranchT
		}
	case CDMF: // control dependence only
		ctrl = a.curCD.time
	case SP: // prior mispredictions serialize
		ctrl = a.lastMispredT
	case SPCD: // CD mispredictions, mispredictions ordered
		ctrl = a.curCD.mispredT
		if mispred && a.lastMispredT > ctrl {
			ctrl = a.lastMispredT
		}
	case SPCDMF: // CD mispredictions only
		ctrl = a.curCD.mispredT
	}
	if ctrl > t {
		t = ctrl
	}
	// Finite scheduling window: wait for the instruction `window` trace
	// positions earlier to have executed.
	if a.window > 0 {
		if w := a.ring[a.ringPos]; w > t {
			t = w
		}
	}
	T := t + 1
	// Completion time under the latency model (equals T for unit latency).
	C := T
	if a.latTab != nil {
		C = T + a.latTab[m.op] - 1
	}
	if a.window > 0 {
		a.ring[a.ringPos] = C
		a.ringPos++
		if a.ringPos == a.window {
			a.ringPos = 0
		}
	}

	// Record the schedule.
	if d := m.dest; d != 0 {
		a.regTime[d] = C
	}
	if flags&FlagStore != 0 {
		a.memTime.store(ae.Addr, C)
	}
	a.count++
	if C > a.maxT {
		a.maxT = C
	}
	if a.OnSchedule != nil {
		a.OnSchedule(ae.Idx, C)
	}
	if a.widths != nil {
		if int64(len(a.widths)) <= T {
			// Grow once to the next power of two past T instead of
			// doubling repeatedly — each doubling step used to build a
			// fresh throwaway slice just to append it.
			n := int64(len(a.widths)) * 2
			for n <= T {
				n *= 2
			}
			grown := make([]int32, n)
			copy(grown, a.widths)
			a.widths = grown
		}
		a.widths[T]++
	}
	if a.trackSegments {
		a.seg.count++
		a.seg.last = max(a.seg.last, C)
	}

	if isBr {
		a.lastBranchT = C
		if a.needCD {
			mt := a.curCD.mispredT
			if mispred {
				mt = C
			}
			a.rec[m.block] = blockRec{
				seq:      a.curBlockSeq,
				termT:    C,
				mispredT: mt,
				procSeq:  a.curProcSeq,
			}
		}
		if mispred {
			a.lastMispredT = C
			if a.trackSegments {
				a.seg.close(C)
			}
		}
	}
}

// markStepped records the first generic step, refusing a fused member:
// its set kept the per-model tables, so it has none to continue from.
func (a *Analyzer) markStepped() {
	if a.phase == phaseFused {
		panic(fmt.Sprintf("limits: %v analyzer was stepped in a fused set and cannot step on its own: "+
			"its per-model tables were never filled", a.model))
	}
	a.phase = phaseStepped
}

// enterBlock starts a new dynamic instance of global block b and resolves
// the instance's immediate control dependence: the most recent among the
// latest instances of the blocks in b's reverse dominance frontier and the
// control dependence inherited from the call site.  If any RDF instance
// belongs to a procedure invocation newer than the current one, recursion
// is detected and the control dependence is dropped for this instance,
// yielding an upper bound exactly as the paper does (§4.4.1).
func (a *Analyzer) enterBlock(b int32) {
	a.seqCounter++
	a.curBlockSeq = a.seqCounter
	best := a.inheritCD
	for _, x := range a.st.blockRDF[b] {
		r := &a.rec[x]
		if r.seq == 0 {
			continue
		}
		if r.procSeq > a.curProcSeq {
			a.recursionDrops++
			a.curCD = cdInfo{}
			return
		}
		if r.seq > best.seq {
			best = cdInfo{time: r.termT, mispredT: r.mispredT, seq: r.seq}
		}
	}
	a.curCD = best
}

// segStats accumulates the code segments delimited by consecutive
// mispredicted branches (SP only): the open segment's instruction
// count, its first and last cycles, and the closed ones by distance.
type segStats struct {
	count, first, last int64
	aggs               map[int64]SegAgg
}

// flush closes the open segment, if it holds any instruction.
func (s *segStats) flush() {
	if s.count > 0 {
		agg := s.aggs[s.count]
		agg.Count++
		agg.Cycles += max(s.last-s.first, 1)
		s.aggs[s.count] = agg
	}
	s.count = 0
}

// close ends the segment at the mispredicted branch just scheduled at
// cycle t, which opens the next one.
func (s *segStats) close(t int64) {
	s.flush()
	s.first, s.last = t, t
}

// Result finalizes and reports the analysis.  The trailing segment (after
// the last misprediction) is closed as a segment of its own.
func (a *Analyzer) Result() Result {
	if a.trackSegments {
		a.seg.flush()
	}
	res := Result{
		Model:          a.model,
		Unrolled:       a.unrolling,
		Instructions:   a.count,
		Cycles:         a.maxT,
		Segments:       a.seg.aggs,
		RecursionDrops: a.recursionDrops,
	}
	if a.widths != nil {
		// widths is indexed by issue cycle T; under a latency model the
		// final completion cycle maxT can exceed the last issue cycle, so
		// cycles past the recorded range count as width 0.
		res.Widths = make(map[int64]int64)
		for t := int64(1); t <= a.maxT; t++ {
			var w int64
			if t < int64(len(a.widths)) {
				w = int64(a.widths[t])
			}
			res.Widths[w]++
		}
	}
	return res
}

// Group runs several analyzers over a single trace.
type Group struct {
	Analyzers []*Analyzer
}

// NewGroup creates analyzers for every given (model, unrolling) pair.
func NewGroup(st *Static, memWords int, models []Model, unrolling bool) *Group {
	g := &Group{}
	for _, m := range models {
		g.Analyzers = append(g.Analyzers, NewAnalyzer(st, m, unrolling, memWords))
	}
	return g
}

// Results collects the analyses in analyzer order.
func (g *Group) Results() []Result {
	rs := make([]Result, len(g.Analyzers))
	for i, a := range g.Analyzers {
		rs[i] = a.Result()
	}
	return rs
}
