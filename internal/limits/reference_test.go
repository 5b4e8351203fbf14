package limits

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"ilplimit/internal/asm"
	"ilplimit/internal/isa"
	"ilplimit/internal/predict"
	"ilplimit/internal/trace"
	"ilplimit/internal/vm"
)

// This file cross-checks the one-pass analyzer against an independent
// O(n²) reference scheduler for all seven models, over randomly
// generated single-procedure programs with unrolling off, through both
// the generic loop (Step) and fused replays — the full seven-model set,
// and each model alone.  The generic loop is also checked under finite
// windows, latency tables and width tracking.  The reference recomputes
// every dependence by scanning the whole trace prefix, and derives
// control dependence from post-dominators it computes itself, sharing
// nothing with the analyzer's incremental state, internal/cfg or
// internal/dataflow.

// referenceSchedule schedules the events by brute force under cfg's
// model, window, latency and width tracking; cfg.Unrolling must be off.
// A dynamic instruction's control-dependence (CD) instance is the
// latest earlier instance of a branch it is control dependent on.
// CD-MF waits for that instance; CD also orders every branch after the
// previous branch.  A branch instance's misprediction time is its own
// completion if it was mispredicted, else its CD instance's
// misprediction time; SP-CD-MF waits for its CD instance's
// misprediction time, and SP-CD also orders every mispredicted branch
// after the previous mispredicted branch.
//
// An instruction issued in cycle T completes in C = T + lat(op) - 1
// (lat is 1 without a latency table).  Every dependence, and every
// branch and misprediction time a model waits on, is a completion
// cycle.  With a window W, an instruction issues at least one cycle
// after the scheduled instruction W positions earlier completes.
// Cycles is the latest completion, and Widths counts, for every cycle
// from 1 to Cycles, how many instructions issued in it.
func referenceSchedule(p *isa.Program, events []vm.Event, cfg Config,
	pred predict.Oracle) Result {

	filter := trace.NewFilter(p, nil)
	deps := controlDeps(p)
	res := Result{Model: cfg.Model}
	done := make([]int64, len(events))  // completion cycle; -1 when filtered
	mispT := make([]int64, len(events)) // misprediction time per branch instance
	var scheduled []int                 // scheduled event indices, in trace order
	issued := map[int64]int64{}         // instructions issued per cycle
	isBranch := func(j int) bool { return p.Instrs[events[j].Idx].Op.IsBranchConstraint() }
	mispredicted := func(j int) bool { return isBranch(j) && pred.Mispredicted(events[j]) }
	for i, ev := range events {
		in := &p.Instrs[ev.Idx]
		if filter.Ignored(ev.Idx) {
			done[i] = -1
			continue
		}
		var t int64
		// Data dependences: scan the whole prefix for the latest write to
		// any source register and, for loads, to the address.
		s1, s2, s3, n := in.SrcRegs()
		srcs := []isa.Reg{}
		if n > 0 && s1 != isa.RZero {
			srcs = append(srcs, s1)
		}
		if n > 1 && s2 != isa.RZero {
			srcs = append(srcs, s2)
		}
		if n > 2 && s3 != isa.RZero {
			srcs = append(srcs, s3)
		}
		for j := i - 1; j >= 0 && len(srcs) > 0; j-- {
			if done[j] < 0 {
				continue
			}
			if d, ok := p.Instrs[events[j].Idx].DestReg(); ok && d != isa.RZero {
				for k := 0; k < len(srcs); k++ {
					if srcs[k] == d {
						if done[j] > t {
							t = done[j]
						}
						// Only the most recent write matters; drop the reg.
						srcs = append(srcs[:k], srcs[k+1:]...)
						k--
					}
				}
			}
		}
		if in.Op.IsLoad() {
			for j := i - 1; j >= 0; j-- {
				if done[j] < 0 {
					continue
				}
				if p.Instrs[events[j].Idx].Op.IsStore() && events[j].Addr == ev.Addr {
					if done[j] > t {
						t = done[j]
					}
					break
				}
			}
		}
		// Control constraint: the latest scheduled earlier event that is
		// a branch, a mispredicted branch, or a branch ev is control
		// dependent on.
		latest := func(ok func(j int) bool) int {
			for j := i - 1; j >= 0; j-- {
				if done[j] >= 0 && ok(j) {
					return j
				}
			}
			return -1
		}
		at := func(ts []int64, j int) int64 {
			if j < 0 {
				return 0
			}
			return ts[j]
		}
		branch, mispred := latest(isBranch), latest(mispredicted)
		cd := latest(func(j int) bool { return deps[ev.Idx][events[j].Idx] })
		var ctrl int64
		switch cfg.Model {
		case Base:
			ctrl = at(done, branch)
		case CD:
			ctrl = at(done, cd)
			if isBranch(i) {
				ctrl = max(ctrl, at(done, branch))
			}
		case CDMF:
			ctrl = at(done, cd)
		case SP:
			ctrl = at(done, mispred)
		case SPCD:
			ctrl = at(mispT, cd)
			if mispredicted(i) {
				ctrl = max(ctrl, at(done, mispred))
			}
		case SPCDMF:
			ctrl = at(mispT, cd)
		}
		if ctrl > t {
			t = ctrl
		}
		if w := cfg.Window; w > 0 && len(scheduled) >= w {
			t = max(t, done[scheduled[len(scheduled)-w]])
		}
		issue, lat := t+1, int64(1)
		if cfg.Latency != nil {
			lat = cfg.Latency(in.Op)
		}
		done[i] = issue + lat - 1
		scheduled = append(scheduled, i)
		issued[issue]++
		mispT[i] = at(mispT, cd)
		if mispredicted(i) {
			mispT[i] = done[i]
		}
		res.Instructions++
		res.Cycles = max(res.Cycles, done[i])
	}
	if cfg.TrackWidths {
		res.Widths = map[int64]int64{}
		for c := int64(1); c <= res.Cycles; c++ {
			res.Widths[issued[c]]++
		}
	}
	return res
}

// sameSchedule reports whether an analyzer's result has the reference's
// instruction count, cycle count and width histogram.
func sameSchedule(got, want Result) bool {
	return got.Instructions == want.Instructions && got.Cycles == want.Cycles &&
		reflect.DeepEqual(got.Widths, want.Widths)
}

// randomLatencies returns a latency table of 1 to 6 cycles per opcode.
func randomLatencies(rng *rand.Rand) func(isa.Op) int64 {
	tab := make([]int64, isa.NumOps)
	for op := range tab {
		tab[op] = 1 + rng.Int63n(6)
	}
	return func(op isa.Op) int64 { return tab[op] }
}

// controlDeps derives control dependence for a single-procedure program
// from scratch: deps[y][x] is set when instruction y is control
// dependent on branch x, that is, when y post-dominates a successor of
// x and does not strictly post-dominate x.  Post-dominators are
// computed as iterative set dataflow over an instruction-level flow
// graph whose virtual exit follows halt.
func controlDeps(p *isa.Program) [][]bool {
	n := len(p.Instrs)
	exit := n
	succs := make([][]int, n)
	for i, in := range p.Instrs {
		switch {
		case in.Op == isa.HALT:
			succs[i] = []int{exit}
		case in.Op == isa.J:
			succs[i] = []int{in.Target}
		case in.Op.IsCondBranch():
			succs[i] = []int{i + 1, in.Target}
		case in.Op.EndsBlock() || in.Op.IsCall():
			panic(fmt.Sprintf("reference: %s is outside the single-procedure scope", in.Op))
		default:
			succs[i] = []int{i + 1}
		}
	}
	// pdom[x][y] reports that y post-dominates x.  The exit starts as
	// its own only post-dominator, every other node as all nodes; each
	// pass shrinks a node's set to itself plus the intersection of its
	// successors' sets, until nothing changes.
	pdom := make([][]bool, n+1)
	for x := range pdom {
		pdom[x] = make([]bool, n+1)
		for y := range pdom[x] {
			pdom[x][y] = x != exit || y == exit
		}
	}
	for changed := true; changed; {
		changed = false
		for x := 0; x < n; x++ {
			for y := 0; y <= n; y++ {
				v := true
				for _, s := range succs[x] {
					v = v && pdom[s][y]
				}
				if v = v || y == x; v != pdom[x][y] {
					pdom[x][y], changed = v, true
				}
			}
		}
	}
	deps := make([][]bool, n)
	for y := range deps {
		deps[y] = make([]bool, n)
	}
	for x := 0; x < n; x++ {
		if !p.Instrs[x].Op.IsBranchConstraint() {
			continue
		}
		for _, s := range succs[x] {
			for y := 0; y < n; y++ {
				if pdom[s][y] && (y == x || !pdom[x][y]) {
					deps[y][x] = true
				}
			}
		}
	}
	return deps
}

// genProgram emits a random but terminating assembly program: blocks of
// random ALU/memory instructions separated by forward branches, plus
// optional countdown loops, one with an early exit, and an optional
// tail of guarded moves.
func genProgram(rng *rand.Rand) string {
	var b []byte
	emit := func(format string, args ...interface{}) {
		b = append(b, fmt.Sprintf(format+"\n", args...)...)
	}
	emit(".data")
	emit("area: .space 64")
	emit(".proc main")
	regs := []string{"$t0", "$t1", "$t2", "$t3", "$t4", "$s0", "$s1"}
	r := func() string { return regs[rng.Intn(len(regs))] }
	for _, reg := range regs {
		emit("\tli %s, %d", reg, rng.Intn(100))
	}
	nBlocks := 3 + rng.Intn(5)
	for blk := 0; blk < nBlocks; blk++ {
		emit("B%d:", blk)
		for k := rng.Intn(6); k >= 0; k-- {
			switch rng.Intn(8) {
			case 0:
				emit("\tadd %s, %s, %s", r(), r(), r())
			case 1:
				emit("\taddi %s, %s, %d", r(), r(), rng.Intn(20)-10)
			case 2:
				emit("\tmul %s, %s, %s", r(), r(), r())
			case 3:
				emit("\txor %s, %s, %s", r(), r(), r())
			case 4:
				emit("\tla $t9, area")
				emit("\tlw %s, %d($t9)", r(), rng.Intn(64))
			case 5:
				emit("\tla $t9, area")
				emit("\tsw %s, %d($t9)", r(), rng.Intn(64))
			case 6:
				emit("\tslt %s, %s, %s", r(), r(), r())
			case 7:
				emit("\tandi %s, %s, %d", r(), r(), rng.Intn(64))
			}
		}
		// Forward branch to a later block (or fall through).
		if blk+1 < nBlocks && rng.Intn(2) == 0 {
			target := blk + 1 + rng.Intn(nBlocks-blk-1)
			emit("\tbeq %s, %s, B%d", r(), r(), target)
		}
	}
	if rng.Intn(2) == 0 {
		emit("\tli $s7, %d", 2+rng.Intn(5))
		emit("Lloop:")
		emit("\tadd %s, %s, %s", r(), r(), r())
		emit("\taddi $s7, $s7, -1")
		emit("\tbnez $s7, Lloop")
	}
	if rng.Intn(2) == 0 {
		// A countdown loop with a data-dependent early exit.  The unroll
		// filter removes the loop branch but keeps the exit, so the
		// removed branch's block is control dependent on a kept branch:
		// the case where its transparency changes the CD models' result.
		emit("\tli $s6, %d", 2+rng.Intn(5))
		emit("\tli $s5, 0")
		emit("Lexitloop:")
		emit("\tadd $s5, $s5, $s6")
		emit("\tli $t8, %d", rng.Intn(20))
		emit("\tblt $t8, $s5, Lexit")
		emit("\tadd %s, %s, %s", r(), r(), r())
		emit("\taddi $s6, $s6, -1")
		emit("\tbnez $s6, Lexitloop")
		emit("Lexit:")
	}
	if rng.Intn(2) == 0 {
		// Guarded moves, the one three-source op: each also reads its
		// old destination.  Drawn after every other draw, so each
		// seed's program is unchanged up to here.
		guard, dest := r(), r()
		emit("\tslt %s, %s, %s", guard, r(), r())
		emit("\tcmovn %s, %s, %s", dest, r(), guard)
		emit("\tcmovz %s, %s, %s", dest, r(), guard)
	}
	emit("\thalt")
	emit(".endproc")
	return string(b)
}

func TestAnalyzerMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20260705))
	latRng := rand.New(rand.NewSource(7)) // apart from rng, so each trial's program is unchanged
	for trial := 0; trial < 60; trial++ {
		src := genProgram(rng)
		p, err := asm.Assemble(src)
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, src)
		}
		machine := vm.NewSized(p, 1<<12)
		machine.StepLimit = 5000
		prof := predict.NewProfile(p)
		var events []vm.Event
		if err := machine.Run(func(ev vm.Event) { prof.Record(ev); events = append(events, ev) }); err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, src)
		}
		pred := prof.Predictor()
		st, err := NewStatic(p, pred)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		memWords := len(machine.Mem)
		chunks := chunkify(st, events, memWords)
		// The full seven-model set, fused.
		full := NewGroup(st, memWords, AllModels(), false)
		if err := ReplayChunks(context.Background(), chunks, full.Analyzers...); err != nil {
			t.Fatal(err)
		}
		// Windows, latency tables and width tracking step the generic
		// loop only.
		randLat := randomLatencies(latRng)
		generic := []Config{
			{TrackWidths: true},
			{Window: 1, TrackWidths: true}, {Window: 2, TrackWidths: true},
			{Window: 3, TrackWidths: true}, {Window: 16, TrackWidths: true},
			{Latency: DefaultLatencies, TrackWidths: true},
			{Latency: randLat, TrackWidths: true},
			{Window: 3, Latency: randLat, TrackWidths: true},
		}
		for _, m := range AllModels() {
			want := referenceSchedule(p, events, Config{Model: m}, pred)
			// The raw Step path runs the generic StepAnnotated loop; the
			// fused replays run the fused kernel, with the model in the
			// full set and alone.
			stepped := NewAnalyzer(st, m, false, memWords)
			for _, ev := range events {
				stepped.Step(ev)
			}
			alone := NewAnalyzer(st, m, false, memWords)
			if err := ReplayChunks(context.Background(), chunks, alone); err != nil {
				t.Fatal(err)
			}
			for _, path := range []struct {
				name string
				a    *Analyzer
			}{{"Step", stepped}, {"fused set", full.Analyzers[m]}, {"fused alone", alone}} {
				if path.name != "Step" && path.a.phase != phaseFused {
					t.Fatalf("trial %d model %s %s: not fused", trial, m, path.name)
				}
				if got := path.a.Result(); !sameSchedule(got, want) {
					t.Fatalf("trial %d model %s %s: analyzer (%d instrs, %d cycles) != reference (%d, %d)\n%s",
						trial, m, path.name, got.Instructions, got.Cycles, want.Instructions, want.Cycles, src)
				}
			}
			for k, cfg := range generic {
				cfg.Model, cfg.MemWords = m, memWords
				a := NewAnalyzerConfig(st, cfg)
				for _, ev := range events {
					a.Step(ev)
				}
				if got, want := a.Result(), referenceSchedule(p, events, cfg, pred); !sameSchedule(got, want) {
					t.Fatalf("trial %d model %s config %d (window %d, latency %v): analyzer (%d instrs, %d cycles, widths %v) != reference (%d, %d, %v)\n%s",
						trial, m, k, cfg.Window, cfg.Latency != nil, got.Instructions, got.Cycles, got.Widths,
						want.Instructions, want.Cycles, want.Widths, src)
				}
			}
		}
		machine.Release()
	}
}
