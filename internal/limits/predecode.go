package limits

import (
	"fmt"

	"ilplimit/internal/predict"
	"ilplimit/internal/telemetry"
	"ilplimit/internal/vm"
)

// Trace pre-decode.
//
// Every analyzer of a replay derives the same per-event facts from the
// raw vm.Event: the instruction's operand registers and op class, the
// leader/inline/unroll filter bits, and — for every speculative model —
// a full predictor evaluation.  With 7 models × 2 unroll configs that
// is O(models × trace) rediscovery of information knowable once per
// event.  The pre-decode stage hoists it into the single producer:
//
//   - NewStatic fuses the per-static-instruction lookups (SrcRegs,
//     DestReg, op classification, blockOf, isLeader, inline, unroll)
//     into one packed instrMeta record, so the analyzer hot loop pays
//     one indexed load instead of five slice walks and two method-call
//     switches.
//   - An Annotator stamps each dynamic event once with the static flag
//     set plus the dynamic facts: the branch outcome and one
//     misprediction bit per predictor "lane" (distinct *Static in the
//     replay), each asked of that lane's predict.Oracle exactly as
//     Analyzer.Step asks it.
//   - Analyzers consume the resulting AnnotatedEvent via StepAnnotated,
//     a branch-light greedy max-schedule whose model-specific control
//     constraint is a small table-driven switch.
//
// Results are bit-identical to stepping raw events: Step is now a thin
// wrapper that self-annotates and calls StepAnnotated.

// Annotation flag bits of AnnotatedEvent.Flags.  The low half carries
// per-event facts (static instruction class plus the dynamic branch
// outcome); bits laneShift and up carry one misprediction bit per
// predictor lane.
const (
	// FlagLeader marks the first instruction of a basic block.
	FlagLeader uint32 = 1 << iota
	// FlagBranch marks a branch constraint (conditional branch or
	// computed jump).
	FlagBranch
	// FlagLoad marks a memory load.
	FlagLoad
	// FlagStore marks a memory store.
	FlagStore
	// FlagCall marks a procedure call.
	FlagCall
	// FlagReturn marks a procedure return.
	FlagReturn
	// FlagInline marks an instruction removed by the inlining filter.
	FlagInline
	// FlagUnroll marks an instruction removed by perfect loop unrolling
	// (only honored by unrolling analyzers).
	FlagUnroll
	// FlagTaken carries the dynamic outcome of a conditional branch,
	// preserving the information needed to reconstruct the vm.Event.
	FlagTaken
)

const (
	// laneShift is the bit position of predictor lane 0's misprediction
	// flag.
	laneShift = 16
	// MaxLanes is how many distinct predictors one annotation pass can
	// serve: a replay whose speculative analyzers span more distinct
	// *Static contexts panics.  Harness replays share one Static; the
	// prediction study uses 3.
	MaxLanes = 32 - laneShift
	// FlagMispredAll masks every lane's misprediction bit.
	FlagMispredAll uint32 = (1<<MaxLanes - 1) << laneShift
)

// AnnotatedEvent is one retired instruction stamped with its pre-decoded
// facts.  It is what the replay ring broadcasts: consumers treat the
// chunk slices as read-only and never re-derive what the producer
// already resolved.  The raw event is fully recoverable via Event, so
// seam code keyed on trace positions (fault injection, journals) keeps
// working on annotated chunks.
type AnnotatedEvent struct {
	// Seq is the zero-based dynamic trace position (vm.Event.Seq).
	Seq int64
	// Addr is the effective address or resolved jump target
	// (vm.Event.Addr).
	Addr int64
	// Idx is the static instruction index (vm.Event.Idx).
	Idx int32
	// Flags carries the Flag* bits plus per-lane misprediction bits.
	Flags uint32
}

// Event reconstructs the raw vm.Event the annotation was stamped from.
func (ae AnnotatedEvent) Event() vm.Event {
	return vm.Event{Seq: ae.Seq, Addr: ae.Addr, Idx: ae.Idx, Taken: ae.Flags&FlagTaken != 0}
}

// instrMeta is the fused per-static-instruction metadata record, built
// once in NewStatic.  It collapses the five per-event lookups of the
// old hot loop (SrcRegs, DestReg, opcode classification, blockOf +
// isLeader, inline/unroll filters) into a single 16-byte load.
type instrMeta struct {
	// block is the program-global basic-block id.
	block int32
	// flags holds the static Flag* bits (everything except FlagTaken
	// and the lane bits, which are dynamic).
	flags uint32
	// src1..src3 are the operand registers; nsrc how many are valid.
	src1, src2, src3 uint8
	nsrc             uint8
	// dest is the written register, 0 (the hardwired zero register,
	// whose writes are discarded) when the instruction writes nothing.
	dest uint8
	// op is the opcode, kept for latency-table indexing.
	op uint8
}

// buildMeta fuses NewStatic's per-instruction tables — global block
// ids, block leaders, and the inlining and unrolling filters' marks —
// with each instruction's operands and op class.
func (st *Static) buildMeta(blockOf []int32, isLeader, inline, unroll []bool) {
	st.meta = make([]instrMeta, len(st.Prog.Instrs))
	for i := range st.Prog.Instrs {
		in := &st.Prog.Instrs[i]
		m := &st.meta[i]
		m.block = blockOf[i]
		m.op = uint8(in.Op)
		s1, s2, s3, n := in.SrcRegs()
		m.src1, m.src2, m.src3, m.nsrc = uint8(s1), uint8(s2), uint8(s3), uint8(n)
		if d, ok := in.DestReg(); ok {
			m.dest = uint8(d)
		}
		if isLeader[i] {
			m.flags |= FlagLeader
		}
		if in.Op.IsBranchConstraint() {
			m.flags |= FlagBranch
		}
		if in.Op.IsLoad() {
			m.flags |= FlagLoad
		}
		if in.Op.IsStore() {
			m.flags |= FlagStore
		}
		if in.Op.IsCall() {
			m.flags |= FlagCall
		}
		if in.Op.IsReturn() {
			m.flags |= FlagReturn
		}
		if inline[i] {
			m.flags |= FlagInline
		}
		if unroll[i] {
			m.flags |= FlagUnroll
		}
	}
}

// Annotator stamps raw VM events with their pre-decoded annotation: the
// static flag set from the fused metadata table plus, for branch
// events, one misprediction bit per predictor lane, each from that
// lane's Static's predictor.  One Annotator serves every analyzer of a
// replay; it is single-goroutine (the producer's) and counts its work
// for the decode telemetry.
type Annotator struct {
	st      *Static
	oracles []predict.Oracle // one per lane

	// Decode counters, flushed to telemetry by the replay.
	events      int64
	branches    int64
	mispredicts int64
}

// NewAnnotator builds the shared annotation pass for the analyzers of
// one replay and assigns each speculative analyzer its predictor lane
// (see AssignReplayLanes): analyzers sharing a *Static share a lane
// (the common case: one lane total).  All analyzers must target the
// same program.  NewAnnotator panics when called with no analyzers or
// with speculative analyzers over more than MaxLanes distinct Statics.
func NewAnnotator(analyzers ...*Analyzer) *Annotator {
	laned := assignLanes(analyzers)
	an := &Annotator{st: analyzers[0].st}
	for _, st := range laned {
		an.oracles = append(an.oracles, st.Pred)
	}
	return an
}

// Annotate stamps one event.  Called once per dynamic instruction, on
// the producer side of a replay.
func (an *Annotator) Annotate(ev vm.Event) AnnotatedEvent {
	flags := an.st.meta[ev.Idx].flags
	if ev.Taken {
		flags |= FlagTaken
	}
	if flags&FlagBranch != 0 {
		an.branches++
		for i, oracle := range an.oracles {
			if oracle.Mispredicted(ev) {
				flags |= 1 << (laneShift + uint(i))
				an.mispredicts++
			}
		}
	}
	an.events++
	return AnnotatedEvent{Seq: ev.Seq, Addr: ev.Addr, Idx: ev.Idx, Flags: flags}
}

// Lanes reports how many predictor lanes the annotation pass resolves
// per branch event — the number of distinct (Static, predictor)
// contexts shared by the analyzers, not the number of analyzers.
func (an *Annotator) Lanes() int { return len(an.oracles) }

// flush publishes the decode counters; m may be nil.
func (an *Annotator) flush(m *telemetry.Registry) {
	if m == nil {
		return
	}
	m.Counter("decode.events").Add(an.events)
	m.Counter("decode.branches").Add(an.branches)
	m.Counter("decode.mispredict_flags").Add(an.mispredicts)
	m.Gauge("decode.lanes").SetMax(int64(len(an.oracles)))
}

// AssignReplayLanes re-applies the predictor-lane assignment that
// NewAnnotator would make for this analyzer set — same order, same
// Static sharing — without building an Annotator, and reports
// the number of lanes assigned.  A cached-trace replay
// (internal/tracestore) uses it so every analyzer reads the mispredict
// bit the producing replay stamped into its lane; the lane count is
// part of the cache fingerprint, since a trace annotated for n lanes
// only serves analyzer sets that map to the same n.  Panics with no
// analyzers, mixed programs or more than MaxLanes lanes, like
// NewAnnotator.
func AssignReplayLanes(analyzers ...*Analyzer) int {
	return len(assignLanes(analyzers))
}

// assignLanes is the one lane assignment: in analyzer order, each
// speculative analyzer takes the lane of its *Static, distinct Statics
// getting lanes 0, 1, … up to MaxLanes.  It returns the laned Statics
// in lane order.
func assignLanes(analyzers []*Analyzer) []*Static {
	if len(analyzers) == 0 {
		panic("limits: a replay needs at least one analyzer")
	}
	prog := analyzers[0].st.Prog
	lanes := make(map[*Static]int)
	var laned []*Static
	for _, a := range analyzers {
		if a.st.Prog != prog {
			panic("limits: analyzers of one replay must share a program")
		}
		if !a.spec {
			continue
		}
		lane, ok := lanes[a.st]
		if !ok {
			if len(laned) == MaxLanes {
				panic(fmt.Sprintf("limits: a replay serves at most %d predictor lanes", MaxLanes))
			}
			lane = len(laned)
			laned = append(laned, a.st)
			lanes[a.st] = lane
		}
		a.setLane(lane)
	}
	return laned
}

// ChunkSink receives every columnar chunk a replay publishes, in trace
// order, on a single goroutine — the spill point where the trace store
// persists an annotated trace while the analyzers consume it.  After
// the last chunk of a replay that completed cleanly, the sink is called
// once more with a nil chunk: the end-of-stream mark a store needs
// before it may commit a file as complete.  A sink that returns an
// error or panics is detached — the replay itself never fails because
// of its sink — and the nil terminator is then withheld.  Chunks are only valid for the duration
// of the call.
type ChunkSink func(*Chunk) error
