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
// row, reading only the rows the instruction has.  When its replay
// ends, the set writes each member's results back into the member
// Analyzer, so Result is unchanged.

// regIndexMask bounds register indices without a bounds check; the
// blank assert requires isa.NumRegs to be a power of two, so masking
// is the identity on every valid register number.
const regIndexMask = isa.NumRegs - 1

var _ = [1]struct{}{}[isa.NumRegs&(isa.NumRegs-1)]

// lanes holds one time per model, indexed by Model; the eighth slot
// pads the row to one 64-byte cache line and is never read back.
type lanes [8]int64

// cdLanes holds the times of the four control-dependence models, in
// the order CD, CD-MF, SP-CD, SP-CD-MF.
type cdLanes [4]int64

// fusedRec is blockRec for the four control-dependence models at once;
// it also serves as their cdInfo, where procSeq goes unread.  For CD
// and CD-MF, t holds the branch instance's own time; for SP-CD and
// SP-CD-MF, the time of the nearest mispredicted branch among its
// control-dependence ancestors.
type fusedRec struct {
	seq, procSeq int64
	t            cdLanes
}

// noCD is the record of no control dependence, which a recursion drop
// picks.  Nothing writes through it.
var noCD fusedRec

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

// writeOnly is the regTime row of an instruction without a
// destination; no instruction reads it.
const writeOnly = isa.NumRegs

// fusedSet steps all seven models for the member analyzers of one
// replay.  Its state mirrors Analyzer's, widened to a lanes row where
// the models' times differ.
type fusedSet struct {
	// ctl is each model's control floor: BASE's last branch, SP's last
	// misprediction, the current control dependence of the four CD
	// models, and 0 for ORACLE.
	ctl lanes
	// maxT is each model's last cycle over the values folded so far;
	// see step for which values are folded when.
	maxT lanes
	// regTime holds a row per register plus, last, the writeOnly row.
	// read records, per row, whether an instruction read it since it
	// was last written.
	regTime *[isa.NumRegs + 1]lanes
	read    [isa.NumRegs + 1]bool
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
// OnSchedule) on an analyzer never stepped.
func (a *Analyzer) fusable() bool {
	return a.window == 0 && a.widths == nil && a.latTab == nil && a.OnSchedule == nil && a.phase == phaseFresh
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
// models.  Each model's time for an instruction is one more than the
// latest of its control floor and the rows the instruction has: none,
// one register, or two registers, where a load's second row is the
// last write to its address (a load reads one register,
// TestLoadsReadOneRegister).  A guarded move, the one three-source op,
// first merges two of its rows.
//
// The last cycle is folded lazily.  A value an instruction reads
// finishes before that reader, so only values nothing reads can be a
// model's last cycle.  Every scheduled time lands in one regTime row:
// its destination's, or the writeOnly row, which nothing reads (a
// store's time also lands in a memTime row, but its writeOnly row
// covers it).  So a row is folded into maxT only when it is
// overwritten unread, and writeBack folds every row once.  Sources are
// marked read before the destination's flag is cleared, so an
// instruction that reads its own destination has read the old value.
// SP's per-segment last cycle stays eager: a reader in a later segment
// does not bound an earlier segment's maximum.
func (s *fusedSet) step(c *Chunk) {
	idxL := c.idx
	addrL := c.addr[:len(idxL)]
	flagsL := c.flags[:len(idxL)]
	meta := s.st.meta
	attention, skip, mispredMask := s.attention, s.skip, s.mispredMask
	regTime, read, ctl, maxT := s.regTime, &s.read, &s.ctl, &s.maxT
	count, segCount, segLast := s.count, s.seg.count, s.seg.last
	var merged lanes // a guarded move's first two sources
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
					f := &s.stack[n-1]
					s.setCD(&f.savedCD)
					s.inheritCD = f.savedInherit
					s.curProcSeq = f.savedProcSeq
					s.curBlockSeq = f.savedBlockSeq
					s.stack = s.stack[:n-1]
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
		var r1, r2 *lanes
		n := m.nsrc
		if n > 0 {
			s1 := m.src1 & regIndexMask
			r1 = &regTime[s1]
			read[s1] = true
			if n > 1 {
				s2 := m.src2 & regIndexMask
				r2 = &regTime[s2]
				read[s2] = true
				if n > 2 {
					s3 := m.src3 & regIndexMask
					read[s3] = true
					mergeRows(&merged, r1, r2)
					r1, r2 = &merged, &regTime[s3]
				}
			}
		}
		if flags&FlagLoad != 0 {
			r2 = s.memTime.load(int64(addrL[i]))
			n = 2
		}
		dest := int(m.dest & regIndexMask)
		if dest == 0 {
			dest = writeOnly
		}
		d := &regTime[dest]
		if !read[dest] {
			maxT[Base] = max(maxT[Base], d[Base])
			maxT[CD] = max(maxT[CD], d[CD])
			maxT[CDMF] = max(maxT[CDMF], d[CDMF])
			maxT[SP] = max(maxT[SP], d[SP])
			maxT[SPCD] = max(maxT[SPCD], d[SPCD])
			maxT[SPCDMF] = max(maxT[SPCDMF], d[SPCDMF])
			maxT[Oracle] = max(maxT[Oracle], d[Oracle])
		}
		read[dest] = false
		// Each lane reads its sources before writing d, so d may be one
		// of them.  The lanes are spelled out: the compiler does not
		// unroll a loop over them, nor inline a seven-lane helper that
		// reads a source row, and a call would spill the loop's
		// registers.
		switch n {
		case 0:
			d[Base] = ctl[Base] + 1
			d[CD] = ctl[CD] + 1
			d[CDMF] = ctl[CDMF] + 1
			d[SP] = ctl[SP] + 1
			d[SPCD] = ctl[SPCD] + 1
			d[SPCDMF] = ctl[SPCDMF] + 1
			d[Oracle] = ctl[Oracle] + 1
		case 1:
			d[Base] = max(r1[Base], ctl[Base]) + 1
			d[CD] = max(r1[CD], ctl[CD]) + 1
			d[CDMF] = max(r1[CDMF], ctl[CDMF]) + 1
			d[SP] = max(r1[SP], ctl[SP]) + 1
			d[SPCD] = max(r1[SPCD], ctl[SPCD]) + 1
			d[SPCDMF] = max(r1[SPCDMF], ctl[SPCDMF]) + 1
			d[Oracle] = max(r1[Oracle], ctl[Oracle]) + 1
		default:
			d[Base] = max(r1[Base], r2[Base], ctl[Base]) + 1
			d[CD] = max(r1[CD], r2[CD], ctl[CD]) + 1
			d[CDMF] = max(r1[CDMF], r2[CDMF], ctl[CDMF]) + 1
			d[SP] = max(r1[SP], r2[SP], ctl[SP]) + 1
			d[SPCD] = max(r1[SPCD], r2[SPCD], ctl[SPCD]) + 1
			d[SPCDMF] = max(r1[SPCDMF], r2[SPCDMF], ctl[SPCDMF]) + 1
			d[Oracle] = max(r1[Oracle], r2[Oracle], ctl[Oracle]) + 1
		}
		if flags&FlagStore != 0 {
			s.memTime.store(int64(addrL[i]), d)
		}
		count++
		segCount++
		segLast = max(segLast, d[SP])
		if flags&FlagBranch != 0 {
			mispred := flags&mispredMask != 0
			s.branch(m.block, d, mispred)
			if mispred {
				s.seg.count, s.seg.last = segCount, segLast
				s.seg.close(d[SP])
				segCount, segLast = 0, d[SP]
			}
		}
	}
	s.count, s.seg.count, s.seg.last = count, segCount, segLast
}

// mergeRows sets each model's lane of d to the later of a's and b's.
func mergeRows(d, a, b *lanes) {
	d[Base] = max(a[Base], b[Base])
	d[CD] = max(a[CD], b[CD])
	d[CDMF] = max(a[CDMF], b[CDMF])
	d[SP] = max(a[SP], b[SP])
	d[SPCD] = max(a[SPCD], b[SPCD])
	d[SPCDMF] = max(a[SPCDMF], b[SPCDMF])
	d[Oracle] = max(a[Oracle], b[Oracle])
}

// branch records a scheduled branch at times t, first raising t by the
// ordering constraints: CD orders every branch after the last one, and
// SP-CD every misprediction after the last one.  It then updates the
// ordering state, the block's control-dependence record and, when
// mispredicted, SP's control floor.
func (s *fusedSet) branch(block int32, t *lanes, mispred bool) {
	t[CD] = max(t[CD], s.lastBranchCD+1)
	s.ctl[Base] = t[Base]
	s.lastBranchCD = t[CD]
	// SP-CD and SP-CD-MF record the nearest misprediction among the
	// branch's control-dependence ancestors: the branch itself when
	// mispredicted, else whatever its own control dependence recorded.
	r := &s.rec[block]
	r.seq, r.procSeq = s.curBlockSeq, s.curProcSeq
	r.t = cdLanes{t[CD], t[CDMF], s.curCD.t[2], s.curCD.t[3]}
	if mispred {
		t[SPCD] = max(t[SPCD], s.lastMispredSPCD+1)
		s.lastMispredSPCD = t[SPCD]
		s.ctl[SP] = t[SP]
		r.t[2], r.t[3] = t[SPCD], t[SPCDMF]
	}
}

// enterBlock is Analyzer.enterBlock for all four control-dependence
// models: the instance it picks, and a recursion drop, depend only on
// sequence numbers, so one walk serves them all.
func (s *fusedSet) enterBlock(b int32) {
	s.seqCounter++
	s.curBlockSeq = s.seqCounter
	best := &s.inheritCD
	for _, x := range s.st.blockRDF[b] {
		r := &s.rec[x]
		if r.seq == 0 {
			continue
		}
		if r.procSeq > s.curProcSeq {
			s.recursionDrops++
			best = &noCD
			break
		}
		if r.seq > best.seq {
			best = r
		}
	}
	s.setCD(best)
}

// setCD makes cd the current control dependence and the four CD
// models' control floor.
func (s *fusedSet) setCD(cd *fusedRec) {
	s.curCD = *cd
	s.ctl[CD], s.ctl[CDMF], s.ctl[SPCD], s.ctl[SPCDMF] = cd.t[0], cd.t[1], cd.t[2], cd.t[3]
}

// writeBack folds every register row into the last cycles and copies
// each member's results into the member analyzer.  Every SP member
// gets its own Segments map, since Result closes the trailing segment
// into it.  Idempotent.
func (s *fusedSet) writeBack() {
	for r := range s.regTime {
		mergeRows(&s.maxT, &s.maxT, &s.regTime[r])
	}
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
