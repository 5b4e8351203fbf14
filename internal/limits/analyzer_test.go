package limits

import (
	"context"
	"testing"

	"ilplimit/internal/asm"
	"ilplimit/internal/isa"
	"ilplimit/internal/predict"
	"ilplimit/internal/vm"
)

// analyze assembles src, trains the profile predictor on one run (or uses
// forced per-branch predictions), and schedules the trace under every
// machine model.
func analyze(t *testing.T, src string, unroll bool, forced map[int]bool) map[Model]Result {
	t.Helper()
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	machine := vm.NewSized(p, 1<<16)
	var pred *predict.Predictor
	if forced != nil {
		pred = predict.NewStaticPredictor(p, forced)
	} else {
		prof := predict.NewProfile(p)
		if err := machine.Run(prof.Record); err != nil {
			t.Fatal(err)
		}
		machine.Reset()
		pred = prof.Predictor()
	}
	st, err := NewStatic(p, pred)
	if err != nil {
		t.Fatal(err)
	}
	g := NewGroup(st, len(machine.Mem), AllModels(), unroll)
	if err := ReplayWith(context.Background(), ReplayOptions{}, machine.RunContext, g.Analyzers...); err != nil {
		t.Fatal(err)
	}
	out := make(map[Model]Result)
	for _, r := range g.Results() {
		out[r.Model] = r
	}
	return out
}

func wantCycles(t *testing.T, rs map[Model]Result, want map[Model]int64) {
	t.Helper()
	for m, c := range want {
		if rs[m].Cycles != c {
			t.Errorf("%s: cycles = %d, want %d", m, rs[m].Cycles, c)
		}
	}
}

func TestIndependentStraightLine(t *testing.T) {
	rs := analyze(t, `
.proc main
	li $t0, 1
	li $t1, 2
	li $t2, 3
	halt
.endproc
`, false, nil)
	for _, m := range AllModels() {
		r := rs[m]
		if r.Instructions != 4 || r.Cycles != 1 {
			t.Errorf("%s: %d instrs in %d cycles, want 4 in 1", m, r.Instructions, r.Cycles)
		}
		if r.Parallelism() != 4 {
			t.Errorf("%s: parallelism %g, want 4", m, r.Parallelism())
		}
	}
}

func TestDataChainSerializes(t *testing.T) {
	rs := analyze(t, `
.proc main
	li   $t0, 1
	addi $t1, $t0, 1
	addi $t2, $t1, 1
	halt
.endproc
`, false, nil)
	for _, m := range AllModels() {
		if rs[m].Cycles != 3 {
			t.Errorf("%s: cycles = %d, want 3 (true data chain)", m, rs[m].Cycles)
		}
	}
}

// One correctly predicted branch.  Speculative machines ignore it entirely;
// BASE and the CD machines wait for it.
func TestSingleBranch(t *testing.T) {
	rs := analyze(t, `
.proc main
	li   $t0, 1
	beqz $t0, L
	li   $t1, 5
	li   $t2, 6
L:
	li   $t3, 7
	halt
.endproc
`, false, nil)
	wantCycles(t, rs, map[Model]int64{
		Base:   3, // branch at 2; everything after waits until 3
		CD:     3, // t1/t2 control dependent on the branch
		CDMF:   3,
		SP:     2, // predicted correctly: only the branch's own data dep
		SPCD:   2,
		SPCDMF: 2,
		Oracle: 2,
	})
	for _, m := range AllModels() {
		if rs[m].Instructions != 6 {
			t.Errorf("%s: instructions = %d, want 6", m, rs[m].Instructions)
		}
	}
}

// A two-iteration countdown loop.  The profile ties (taken once, not taken
// once), so the predictor says not-taken and the first execution
// mispredicts.  Hand-derived schedules give the cycle counts below.
func TestCountdownLoop(t *testing.T) {
	rs := analyze(t, `
.proc main
	li   $t0, 2
loop:
	addi $t0, $t0, -1
	bnez $t0, loop
	halt
.endproc
`, false, nil)
	wantCycles(t, rs, map[Model]int64{
		Base:   6,
		CD:     5,
		CDMF:   5,
		SP:     5,
		SPCD:   5,
		SPCDMF: 5,
		Oracle: 4,
	})
	for _, m := range AllModels() {
		if rs[m].Instructions != 6 {
			t.Errorf("%s: instructions = %d, want 6", m, rs[m].Instructions)
		}
	}
}

// With perfect unrolling the countdown loop's increment and branch are
// removed: only the initial li and the halt remain.
func TestCountdownLoopUnrolled(t *testing.T) {
	rs := analyze(t, `
.proc main
	li   $t0, 2
loop:
	addi $t0, $t0, -1
	bnez $t0, loop
	halt
.endproc
`, true, nil)
	for _, m := range AllModels() {
		r := rs[m]
		if r.Instructions != 2 {
			t.Errorf("%s: instructions = %d, want 2", m, r.Instructions)
		}
		if r.Cycles != 1 {
			t.Errorf("%s: cycles = %d, want 1", m, r.Cycles)
		}
		if !r.Unrolled {
			t.Errorf("%s: result not flagged as unrolled", m)
		}
	}
}

// Two branches with independent conditions: the CD machine's branch
// ordering serializes them, CD-MF does not.
func TestBranchOrderingCDvsCDMF(t *testing.T) {
	rs := analyze(t, `
.proc main
	li   $t0, 1
	li   $t1, 1
	beqz $t0, L1
	li   $s0, 5
L1:
	beqz $t1, L2
	li   $s1, 6
L2:
	halt
.endproc
`, false, nil)
	wantCycles(t, rs, map[Model]int64{
		Base: 4,
		CD:   4, // second branch waits for the first (ordering)
		CDMF: 3, // both branches at cycle 2, dependents at 3
	})
}

// After a forced misprediction, control-independent code need not wait on
// the SP-CD machines but stalls on plain SP.
func TestMispredictionControlIndependence(t *testing.T) {
	// The branch is taken; force the prediction to not-taken.
	src := `
.proc main
	li   $t0, 0
	beqz $t0, L1
L1:
	li   $s0, 5
	addi $s1, $s0, 1
	halt
.endproc
`
	rs := analyze(t, src, false, map[int]bool{1: false}) // predict not-taken => mispredict
	wantCycles(t, rs, map[Model]int64{
		SP:     4, // everything after the misprediction waits until cycle 2
		SPCD:   2, // L1 postdominates the branch: control independent
		SPCDMF: 2,
		Oracle: 2,
	})
}

// Two control-independent mispredicted branches: SP-CD still resolves them
// in order; SP-CD-MF resolves them in parallel.
func TestParallelMispredictions(t *testing.T) {
	src := `
.proc main
	li   $t0, 0
	li   $t1, 0
	beqz $t0, L1
L1:
	beqz $t1, L2
L2:
	halt
.endproc
`
	rs := analyze(t, src, false, map[int]bool{2: false, 3: false})
	wantCycles(t, rs, map[Model]int64{
		SPCD:   3, // mispredictions ordered: cycle 2 then 3
		SPCDMF: 2, // both mispredictions resolve at cycle 2
	})
}

// A nested correctly-predicted branch transmits its ancestor's
// misprediction time: under SP-CD an instruction whose immediate CD branch
// was predicted correctly waits only for the nearest mispredicted
// *ancestor* (here the outer branch), while the CD machine must wait for
// the immediate CD branch itself.
func TestMispredictionInheritance(t *testing.T) {
	src := `
.proc main
	li   $t0, 0
	li   $t1, 1
	beqz $t0, A       # outer branch: taken, forced prediction not-taken
	j    END
A:
	beqz $t1, A2      # inner branch: not taken, predicted correctly
	li   $s0, 7       # immediate CD = inner branch (correct);
A2:                       # nearest mispredicted ancestor = outer branch
	li   $s1, 8
END:
	halt
.endproc
`
	rs := analyze(t, src, false, map[int]bool{2: false, 4: false})
	// Hand-derived schedule: lis@1, outer@2 (mispredicted), inner@3
	// (waits for the outer misprediction), then:
	//   CD:    li $s0 waits for the inner branch -> cycle 4.
	//   SP-CD: li $s0 waits only for the outer misprediction -> cycle 3.
	wantCycles(t, rs, map[Model]int64{
		CD:     4,
		SPCD:   3,
		SPCDMF: 3,
		SP:     3,
		Oracle: 2,
	})
}

// A callee inherits the control dependence of its call site (§4.4.1).
func TestInterproceduralCD(t *testing.T) {
	rs := analyze(t, `
.proc main
	li   $t0, 1
	beqz $t0, skip
	jal  f
skip:
	halt
.endproc
.proc f
	li   $s0, 7
	ret
.endproc
`, false, nil)
	// CD machine: li@1, beqz@2, f's li inherits branch@2 so runs at 3,
	// halt is control independent (postdominates) and runs at 1.
	wantCycles(t, rs, map[Model]int64{
		CD:     3,
		CDMF:   3,
		Oracle: 2,
	})
	// Instructions: li, beqz, li, halt (jal/ret removed by inlining).
	for _, m := range AllModels() {
		if rs[m].Instructions != 4 {
			t.Errorf("%s: instructions = %d, want 4", m, rs[m].Instructions)
		}
	}
}

// Stack-pointer manipulation is removed from the trace, breaking the
// serial increment/decrement chain between calls; the frame stores and
// loads still respect true memory dependences via their real addresses.
func TestStackPointerChainRemoved(t *testing.T) {
	rs := analyze(t, `
.proc main
	jal f
	jal f
	halt
.endproc
.proc f
	addi $sp, $sp, -1
	sw   $s0, 0($sp)
	addi $s0, $s0, 1
	lw   $s0, 0($sp)
	addi $sp, $sp, 1
	ret
.endproc
`, false, nil)
	// Counted instructions per call: sw, addi, lw = 3 (+1 halt) = 7.
	if rs[Oracle].Instructions != 7 {
		t.Fatalf("instructions = %d, want 7", rs[Oracle].Instructions)
	}
	// Oracle: both calls write/read the same stack word (same sp), so the
	// second call's sw must follow the first call's lw:
	//   call1: sw@1 addi@1 lw@2 ; call2: sw@3 addi@2 lw@4 ; halt@1.
	if rs[Oracle].Cycles != 4 {
		t.Errorf("oracle cycles = %d, want 4", rs[Oracle].Cycles)
	}
}

func TestMemoryDisambiguation(t *testing.T) {
	rs := analyze(t, `
.data
a: .word 0 0
.proc main
	la  $t0, a
	li  $t1, 5
	sw  $t1, 0($t0)
	lw  $t2, 1($t0)
	lw  $t3, 0($t0)
	halt
.endproc
`, false, nil)
	// Oracle: la@1,li@1,sw@2,lw(1)@2 (different word, no dep), lw(0)@3.
	if rs[Oracle].Cycles != 3 {
		t.Errorf("oracle cycles = %d, want 3", rs[Oracle].Cycles)
	}
}

// Recursion: the paper drops the control dependence when a reverse
// dominance frontier instance comes from a deeper invocation.  We verify
// the analyzer terminates and stays within the model ordering bounds.
func TestRecursionUpperBound(t *testing.T) {
	src := `
.proc main
	li   $a0, 6
	jal  fib
	halt
.endproc
.proc fib
	li   $t0, 2
	blt  $a0, $t0, base
	addi $sp, $sp, -3
	sw   $ra, 0($sp)
	sw   $a0, 1($sp)
	addi $a0, $a0, -1
	jal  fib
	sw   $v0, 2($sp)
	lw   $a0, 1($sp)
	addi $a0, $a0, -2
	jal  fib
	lw   $t1, 2($sp)
	add  $v0, $v0, $t1
	lw   $ra, 0($sp)
	addi $sp, $sp, 3
	ret
base:
	mov  $v0, $a0
	ret
.endproc
`
	rs := analyze(t, src, false, nil)
	assertModelOrdering(t, rs)
}

// assertModelOrdering checks the provable dominance chains:
// Oracle <= CD-MF <= CD <= BASE and Oracle <= SP-CD-MF <= SP-CD <= SP <= BASE.
func assertModelOrdering(t *testing.T, rs map[Model]Result) {
	t.Helper()
	le := func(a, b Model) {
		if rs[a].Cycles > rs[b].Cycles {
			t.Errorf("%s cycles (%d) > %s cycles (%d)", a, rs[a].Cycles, b, rs[b].Cycles)
		}
	}
	le(Oracle, CDMF)
	le(CDMF, CD)
	le(CD, Base)
	le(Oracle, SPCDMF)
	le(SPCDMF, SPCD)
	le(SPCD, SP)
	le(SP, Base)
	counts := rs[Base].Instructions
	for _, m := range AllModels() {
		if rs[m].Instructions != counts {
			t.Errorf("%s counted %d instructions, others %d", m, rs[m].Instructions, counts)
		}
	}
}

const mixedWorkload = `
.data
arr: .space 64
.proc main
	# fill arr with pseudo-random values, then sum the odd ones with a
	# data-dependent branch, with a helper call in the loop.
	la   $s0, arr
	li   $s1, 0
	li   $s2, 1234
fill:
	li   $t9, 64
	bge  $s1, $t9, sum
	muli $s2, $s2, 1103515245
	addi $s2, $s2, 12345
	srai $t0, $s2, 16
	andi $t0, $t0, 1023
	add  $t1, $s0, $s1
	sw   $t0, 0($t1)
	addi $s1, $s1, 1
	j    fill
sum:
	li   $s1, 0
	li   $s3, 0
sloop:
	li   $t9, 64
	bge  $s1, $t9, done
	add  $t1, $s0, $s1
	lw   $t0, 0($t1)
	andi $t2, $t0, 1
	beqz $t2, skip
	jal  bump
skip:
	addi $s1, $s1, 1
	j    sloop
done:
	halt
.endproc
.proc bump
	add  $s3, $s3, $t0
	ret
.endproc
`

func TestMixedWorkloadOrdering(t *testing.T) {
	rs := analyze(t, mixedWorkload, false, nil)
	assertModelOrdering(t, rs)
	if rs[Base].Parallelism() < 1 {
		t.Errorf("BASE parallelism %g < 1", rs[Base].Parallelism())
	}
	// Unrolled run keeps the same orderings with fewer instructions.
	ru := analyze(t, mixedWorkload, true, nil)
	assertModelOrdering(t, ru)
	if ru[Base].Instructions >= rs[Base].Instructions {
		t.Errorf("unrolling removed nothing: %d vs %d", ru[Base].Instructions, rs[Base].Instructions)
	}
}

// Every counted instruction belongs to exactly one SP segment, so the
// weighted distances must sum to the instruction count.
func TestSegmentAccounting(t *testing.T) {
	rs := analyze(t, mixedWorkload, false, nil)
	sp := rs[SP]
	if sp.Segments == nil {
		t.Fatal("SP result has no segment statistics")
	}
	var total int64
	for dist, agg := range sp.Segments {
		if dist <= 0 || agg.Count <= 0 || agg.Cycles < agg.Count {
			// Each segment spans at least one cycle.
			if agg.Cycles < agg.Count && agg.Cycles*int64(len(sp.Segments)) != 0 {
				t.Errorf("segment dist %d: count %d cycles %d", dist, agg.Count, agg.Cycles)
			}
		}
		total += dist * agg.Count
	}
	if total != sp.Instructions {
		t.Errorf("segment-weighted instructions %d != total %d", total, sp.Instructions)
	}
	// Only the SP model tracks segments.
	if rs[SPCD].Segments != nil || rs[Base].Segments != nil {
		t.Error("non-SP models should not produce segment statistics")
	}
}

// The unrolling filter makes removed loop branches transparent: the loop
// body inherits the enclosing control dependence instead.
func TestUnrollTransparentBranch(t *testing.T) {
	src := `
.proc main
	li   $t0, 1
	beqz $t0, out
	li   $s1, 0
loop:
	li   $t9, 4
	bge  $s1, $t9, out
	li   $s2, 7
	addi $s1, $s1, 1
	j    loop
out:
	halt
.endproc
`
	rs := analyze(t, src, true, nil)
	// With the loop control removed, every "li $s2, 7" is control dependent
	// on the outer beqz (via transparency) under CD machines: beqz@2, body
	// li@3. The loop branch itself is gone.  The Oracle still pays the
	// beqz's own data dependence (li@1 -> beqz@2).
	wantCycles(t, rs, map[Model]int64{
		CDMF:   3,
		Oracle: 2,
	})
}

func TestComputedJumpAlwaysMispredicted(t *testing.T) {
	src := `
.jumptable disp: c0 c1
.proc main
	li   $t0, 1
	jtab $t0, disp
c0:
	li   $s0, 1
	j    done
c1:
	li   $s0, 2
done:
	halt
.endproc
`
	rs := analyze(t, src, false, nil)
	// SP: li@1, jtab@2 (mispredicted), li@3, halt@3.
	wantCycles(t, rs, map[Model]int64{
		SP:     3,
		Oracle: 2,
	})
}

func TestScheduleHook(t *testing.T) {
	p, err := asm.Assemble(`
.proc main
	li   $t0, 1
	addi $t1, $t0, 1
	halt
.endproc
`)
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewStatic(p, predict.NewStaticPredictor(p, nil))
	if err != nil {
		t.Fatal(err)
	}
	machine := vm.New(p)
	a := NewAnalyzer(st, Oracle, false, len(machine.Mem))
	var got []int64
	a.OnSchedule = func(idx int32, cycle int64) { got = append(got, cycle) }
	if err := machine.Run(func(ev vm.Event) { a.Step(ev) }); err != nil {
		t.Fatal(err)
	}
	want := []int64{1, 2, 1}
	if len(got) != len(want) {
		t.Fatalf("hook fired %d times, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("cycle[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestModelStrings(t *testing.T) {
	want := map[Model]string{
		Base: "BASE", CD: "CD", CDMF: "CD-MF", SP: "SP",
		SPCD: "SP-CD", SPCDMF: "SP-CD-MF", Oracle: "ORACLE",
	}
	for m, s := range want {
		if m.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(m), m.String(), s)
		}
	}
	if Model(99).String() == "" {
		t.Error("unknown model should still stringify")
	}
	if len(AllModels()) != NumModels {
		t.Errorf("AllModels() has %d entries, want %d", len(AllModels()), NumModels)
	}
}

func TestZeroRegisterNoDependence(t *testing.T) {
	// Writes to $zero are discarded; reads of $zero never wait.
	rs := analyze(t, `
.proc main
	li   $t0, 500
	mov  $zero, $t0
	add  $t1, $zero, $zero
	halt
.endproc
`, false, nil)
	// The discarded mov still reads $t0 and runs at cycle 2, but the add
	// must not wait for it: with a real write to $zero the add (and the
	// total) would land at cycle 3.
	if rs[Oracle].Cycles != 2 {
		t.Errorf("oracle cycles = %d, want 2", rs[Oracle].Cycles)
	}
}

func TestOutsideProcError(t *testing.T) {
	p, err := asm.Assemble("stray:\n nop\n.proc main\n halt\n.endproc")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewStatic(p, nil); err == nil {
		t.Error("instruction outside every procedure should fail NewStatic")
	}
}

var _ = isa.RZero // keep import if unused in future edits
