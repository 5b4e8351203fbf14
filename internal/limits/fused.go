package limits

import (
	"maps"

	"ilplimit/internal/isa"
)

// Fused stepping.  The seven models differ only in which branch an
// instruction waits for, so a fusedSet steps all of them in one pass,
// as a SIMT core drives several thread states from one instruction
// stream: per event it loads the chunk lanes and the instrMeta record
// once, resolves control dependence once (the branch instance
// enterBlock picks depends only on sequence numbers, never on times),
// and updates seven per-model times held side by side in a 64-byte
// row.  When its replay ends, the set writes each member's results
// back into the member Analyzer, so Result is unchanged.

// regIndexMask bounds register indices without a bounds check; the
// blank assert requires isa.NumRegs to be a power of two, so masking
// is the identity on every valid register number.
const regIndexMask = isa.NumRegs - 1

var _ = [1]struct{}{}[isa.NumRegs&(isa.NumRegs-1)]

// lanes holds one time per model, indexed by Model; the eighth slot
// pads the row to one 64-byte cache line and is never read back.
type lanes [8]int64

// fusedRec is blockRec for the four control-dependence models at once;
// it also serves as their cdInfo, where procSeq goes unread.  Only
// their lanes of t are read: for CD and CD-MF the branch instance's own
// time, for SP-CD and SP-CD-MF the time of the nearest mispredicted
// branch among its control-dependence ancestors.
type fusedRec struct {
	seq, procSeq int64
	t            lanes
}

// fusedFrame is frame for all four control-dependence models at once.
type fusedFrame struct {
	savedCD, savedInherit       fusedRec
	savedProcSeq, savedBlockSeq int64
}

// rowPageBits selects 512-row (32 KiB) pages for rowTable, the same
// bytes per page as timeTable's 4096 scalar words.
const (
	rowPageBits = 9
	rowPageMask = 1<<rowPageBits - 1
)

// zeroRow is the row every load from an untouched page reads.
var zeroRow lanes

// rowTable is timeTable with one lanes row per memory word, so one
// lookup serves all seven models.
type rowTable struct {
	pages []*[1 << rowPageBits]lanes
}

// newRowTable covers the same addresses as a timeTable of
// timePages pages.
func newRowTable(timePages int) rowTable {
	return rowTable{pages: make([]*[1 << rowPageBits]lanes, timePages<<(pageBits-rowPageBits))}
}

// load returns addr's row, zeroRow if its page was never stored to.
// The caller must not write through the result.
func (t *rowTable) load(addr int64) *lanes {
	if p := t.pages[addr>>rowPageBits]; p != nil {
		return &p[addr&rowPageMask]
	}
	return &zeroRow
}

// store records row as the last write to addr.
func (t *rowTable) store(addr int64, row *lanes) {
	i := addr >> rowPageBits
	p := t.pages[i]
	if p == nil {
		p = new([1 << rowPageBits]lanes)
		t.pages[i] = p
	}
	p[addr&rowPageMask] = *row
}

// fusedSet steps all seven models for the member analyzers of one
// replay.  Its state mirrors Analyzer's, widened to a lanes row where
// the models' times differ.
type fusedSet struct {
	// ctl is each model's control floor for an event that is not a
	// branch: BASE's last branch, SP's last misprediction, the current
	// control dependence of the four CD models, and 0 for ORACLE.
	// brCtl is a branch's: ctl raised by the ordering constraints CD
	// and SP-CD add for branches.
	ctl, brCtl lanes
	maxT       lanes
	// regTime holds a row per register plus, last, the row an
	// instruction without a destination writes, which nothing reads.
	regTime *[isa.NumRegs + 1]lanes
	memTime rowTable

	members                      []*Analyzer
	st                           *Static
	skip, attention, mispredMask uint32
	lastBranchCD                 int64 // CD's last branch
	lastMispredSPCD              int64 // SP-CD's last misprediction

	rec         []fusedRec
	seqCounter  int64
	curBlockSeq int64
	curProcSeq  int64
	curCD       fusedRec
	inheritCD   fusedRec
	stack       []fusedFrame

	count          int64
	recursionDrops int64
	seg            segStats // SP's
}

// fusable reports whether a can join a fused set: the fast
// configuration (unbounded window, no width tracking, unit latency, no
// OnSchedule, a resolved predictor lane) on an analyzer never stepped.
func (a *Analyzer) fusable() bool {
	return a.window == 0 && a.widths == nil && a.latTab == nil && a.OnSchedule == nil &&
		(!a.spec || a.mispredMask != 0) && a.phase == phaseFresh
}

// newFusedSet starts an empty set for analyzers shaped like a.
func newFusedSet(a *Analyzer) *fusedSet {
	return &fusedSet{
		st:         a.st,
		skip:       a.skip,
		attention:  a.skip | FlagCall | FlagReturn | FlagLeader,
		regTime:    new([isa.NumRegs + 1]lanes),
		memTime:    newRowTable(len(a.memTime.pages)),
		rec:        make([]fusedRec, a.st.numBlocks),
		curProcSeq: 1,
		seg:        segStats{aggs: make(map[int64]SegAgg)},
	}
}

// add makes a a member.  Speculative members share the set's Static and
// so its predictor lane; the first one fixes the lane the set reads.
func (s *fusedSet) add(a *Analyzer) {
	if a.spec && s.mispredMask == 0 {
		s.mispredMask = a.mispredMask
	}
	a.phase = phaseFused
	s.members = append(s.members, a)
}

// step schedules every event of one columnar chunk under all seven
// models.
func (s *fusedSet) step(c *Chunk) {
	idxL := c.idx
	addrL := c.addr[:len(idxL)]
	flagsL := c.flags[:len(idxL)]
	meta := s.st.meta
	attention, skip, mispredMask := s.attention, s.skip, s.mispredMask
	regTime, maxT := s.regTime, &s.maxT
	for i := range idxL {
		flags := flagsL[i]
		m := &meta[idxL[i]]
		if flags&attention != 0 {
			if flags&FlagLeader != 0 {
				s.enterBlock(m.block)
			}
			if flags&FlagCall != 0 {
				s.stack = append(s.stack, fusedFrame{s.curCD, s.inheritCD, s.curProcSeq, s.curBlockSeq})
				s.inheritCD = s.curCD
				s.curProcSeq = s.seqCounter + 1
				continue
			}
			if flags&FlagReturn != 0 {
				if n := len(s.stack); n > 0 {
					f := s.stack[n-1]
					s.stack = s.stack[:n-1]
					s.setCD(f.savedCD)
					s.inheritCD = f.savedInherit
					s.curProcSeq = f.savedProcSeq
					s.curBlockSeq = f.savedBlockSeq
				}
				continue
			}
			if flags&skip != 0 {
				if flags&FlagBranch != 0 {
					// A removed loop branch is transparent: dependents
					// inherit the branch's own control dependence.
					s.rec[m.block] = fusedRec{seq: s.curBlockSeq, procSeq: s.curProcSeq, t: s.curCD.t}
				}
				continue
			}
		}
		cr := &s.ctl
		isBr := flags&FlagBranch != 0
		mispred := isBr && flags&mispredMask != 0
		if isBr {
			s.brCtl = s.ctl
			s.brCtl[CD] = max(s.brCtl[CD], s.lastBranchCD)
			if mispred {
				s.brCtl[SPCD] = max(s.brCtl[SPCD], s.lastMispredSPCD)
			}
			cr = &s.brCtl
		}
		dest := int(m.dest & regIndexMask)
		if dest == 0 {
			dest = isa.NumRegs
		}
		d := &regTime[dest]
		r1 := &regTime[m.src1&regIndexMask]
		r2 := &regTime[m.src2&regIndexMask]
		r3 := &regTime[m.src3&regIndexMask]
		if flags&FlagLoad != 0 {
			// A load reads one register (TestLoadsReadOneRegister), so
			// the last write to its address takes the third source's
			// place.
			r3 = s.memTime.load(int64(addrL[i]))
		}
		// Each lane reads its sources before writing d, so d may be one
		// of them.
		schedule(Base, d, r1, r2, r3, cr, maxT)
		schedule(CD, d, r1, r2, r3, cr, maxT)
		schedule(CDMF, d, r1, r2, r3, cr, maxT)
		schedule(SP, d, r1, r2, r3, cr, maxT)
		schedule(SPCD, d, r1, r2, r3, cr, maxT)
		schedule(SPCDMF, d, r1, r2, r3, cr, maxT)
		schedule(Oracle, d, r1, r2, r3, cr, maxT)
		if flags&FlagStore != 0 {
			s.memTime.store(int64(addrL[i]), d)
		}
		s.count++
		s.seg.count++
		s.seg.last = max(s.seg.last, d[SP])
		if isBr {
			s.branch(m.block, d, mispred)
		}
	}
}

// schedule sets model k's lane of d to the cycle after the latest of
// its sources — registers or memory, and the control floor — and
// raises the model's last cycle.
func schedule(k Model, d, r1, r2, r3, cr, maxT *lanes) {
	c := max(r1[k], r2[k], r3[k], cr[k]) + 1
	d[k] = c
	maxT[k] = max(maxT[k], c)
}

// branch records a scheduled branch at times t: the ordering state,
// the block's control-dependence record and, when mispredicted, SP's
// segment boundary.
func (s *fusedSet) branch(block int32, t *lanes, mispred bool) {
	s.ctl[Base] = t[Base]
	s.lastBranchCD = t[CD]
	r := fusedRec{seq: s.curBlockSeq, procSeq: s.curProcSeq, t: *t}
	if mispred {
		s.lastMispredSPCD = t[SPCD]
		s.ctl[SP] = t[SP]
		s.seg.close(t[SP])
	} else {
		r.t[SPCD], r.t[SPCDMF] = s.curCD.t[SPCD], s.curCD.t[SPCDMF]
	}
	s.rec[block] = r
}

// enterBlock is Analyzer.enterBlock for all four control-dependence
// models: the instance it picks, and a recursion drop, depend only on
// sequence numbers, so one walk serves them all.
func (s *fusedSet) enterBlock(b int32) {
	s.seqCounter++
	s.curBlockSeq = s.seqCounter
	best := s.inheritCD
	for _, x := range s.st.blockRDF[b] {
		r := &s.rec[x]
		if r.seq == 0 {
			continue
		}
		if r.procSeq > s.curProcSeq {
			s.recursionDrops++
			best = fusedRec{}
			break
		}
		if r.seq > best.seq {
			best = *r
		}
	}
	s.setCD(best)
}

// setCD makes cd the current control dependence and the four CD
// models' control floor.
func (s *fusedSet) setCD(cd fusedRec) {
	s.curCD = cd
	s.ctl[CD], s.ctl[CDMF], s.ctl[SPCD], s.ctl[SPCDMF] = cd.t[CD], cd.t[CDMF], cd.t[SPCD], cd.t[SPCDMF]
}

// writeBack copies each member's results into the member analyzer.
// Every SP member gets its own Segments map, since Result closes the
// trailing segment into it.  Idempotent.
func (s *fusedSet) writeBack() {
	for _, a := range s.members {
		a.count = s.count
		a.maxT = s.maxT[a.model]
		if a.needCD {
			a.recursionDrops = s.recursionDrops
		}
		if a.trackSegments {
			a.seg = s.seg
			a.seg.aggs = maps.Clone(s.seg.aggs)
		}
	}
}
