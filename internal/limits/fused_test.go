package limits

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"ilplimit/internal/asm"
	"ilplimit/internal/isa"
	"ilplimit/internal/predict"
	"ilplimit/internal/trace"
	"ilplimit/internal/vm"
)

// This file pins fused stepping (fused.go).  For every model set — all
// seven, each alone, a reordered subset, one model twice — and both
// unroll settings, a fused replay must give each member Results
// bit-identical to the generic StepAnnotated loop and the raw Step
// path, through the ring, the inline loop and a trace-store round trip.
// It also pins the rules that split a replay's analyzers into
// consumers.

// fusedSets enumerates the model sets the equivalence checks run.  The
// last holds SP twice: each SP member must get its own Segments map, or
// Result closes the trailing segment twice into a shared one.
func fusedSets() [][]Model {
	sets := [][]Model{AllModels()}
	for _, m := range AllModels() {
		sets = append(sets, []Model{m})
	}
	return append(sets,
		[]Model{Oracle, SPCD, Base, CDMF},
		[]Model{SP, CD, SP, SPCDMF, CD})
}

// recursiveSrc calls, returns and recurses through branchy blocks with
// memory traffic: the control-dependence stack and the recursion drop,
// which genProgram's single-procedure programs never reach.  Two
// independent chains make the cycle count depend on them.  The one in
// f's block deep starts at cycle 1 only because the block's control
// dependence is dropped (its reverse dominance frontier holds a deeper
// invocation's entry branch).  The one after main's call to g starts
// early only if the return restores main's control dependence: g
// returns from a block control dependent on its late branch.
var recursiveSrc = `
.data
buf: .space 64
.proc main
	li  $s0, 3
again:
	li  $a0, 5
	jal f
	jal g
	li  $t5, 1
` + strings.Repeat("\taddi $t5, $t5, 1\n", 30) + `	addi $s0, $s0, -1
	bnez $s0, again
	halt
.endproc
.proc f
	beqz $a0, done
	addi $sp, $sp, -2
	sw   $ra, 0($sp)
	sw   $a0, 1($sp)
	la   $t0, buf
	andi $t2, $a0, 7
	add  $t0, $t0, $t2
	lw   $t3, 0($t0)
	add  $t3, $t3, $a0
	sw   $t3, 0($t0)
	addi $a0, $a0, -1
	jal  f
	lw   $a0, 1($sp)
	li   $t1, 3
	bgt  $t1, $a0, deep
	addi $v0, $v0, 1
deep:
	li   $t4, 1
` + strings.Repeat("\taddi $t4, $t4, 1\n", 40) + `	lw   $ra, 0($sp)
	addi $sp, $sp, 2
done:
	ret
.endproc
.proc g
	li   $t6, 1
` + strings.Repeat("\tadd  $t6, $t6, $t6\n", 20) + `	bgtz $t6, pos
	ret
pos:
	ret
.endproc
`

// lazyFoldSrc is a loop-free program whose last cycle, in every
// model, is set by a value the fused kernel folds lazily (fused.go,
// step): no instruction reads it.  Each model's last cycle comes from
// a different case, so each fold rule has a model that fails without
// it:
//
//   - (a) ORACLE, SP, SP-CD, SP-CD-MF (cycle 9): the end of a chain
//     across $t1 and $t2 that "li $t1, 0" overwrites before any read.
//     It is folded when overwritten.
//   - (b) CD (cycle 14): the self-update "addi $t0, $t0, 1" that ends
//     a chain in a block control dependent on the branch on $s0, which
//     CD orders after the late branch on $t3.  "li $t0, 0" overwrites
//     it unread.  It is folded only if the update marks its source read
//     before it clears its destination's flag.
//   - (c) CD-MF (cycle 12): a store to buf, which nothing loads, in a
//     block control dependent on the late branch.  It lands in the
//     write-only row, folded when the next branch overwrites it.
//   - (d) BASE (cycle 15): the final branch, which reads a chain BASE
//     starts only after the branch on $s0.  In BASE the halt after it
//     waits for it, and the halt's time stays in the write-only row
//     until writeBack folds it.
//
// Every branch runs once, so the profile predictor never mispredicts,
// and the speculative models schedule as ORACLE does.
var lazyFoldSrc = `
.data
buf: .space 8
.proc main
	la   $t9, buf
	li   $s0, 1
	li   $t1, 1
` + strings.Repeat("\taddi $t2, $t1, 1\n\taddi $t1, $t2, 1\n", 4) + `	li   $t1, 0
	li   $t3, 1
` + strings.Repeat("\taddi $t3, $t3, 1\n", 4) + `	beqz $t3, joinC
	li   $t4, 1
` + strings.Repeat("\taddi $t4, $t4, 1\n", 4) + `	sw   $t4, 0($t9)
joinC:
	beqz $s0, joinE
	li   $t0, 1
` + strings.Repeat("\taddi $t0, $t0, 1\n", 6) + `	li   $t0, 0
joinE:
	li   $t6, 1
` + strings.Repeat("\taddi $t6, $t6, 1\n", 5) + `	bnez $t6, done
done:
	halt
.endproc
`

// lazyFoldCycles is each model's last cycle on lazyFoldSrc.
var lazyFoldCycles = map[Model]int64{Base: 15, CD: 14, CDMF: 12, SP: 9, SPCD: 9, SPCDMF: 9, Oracle: 9}

// sourceTrace assembles src, profiles it, and captures its trace.
func sourceTrace(t testing.TB, src string) (*Static, []vm.Event, int) {
	t.Helper()
	prog, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	machine := vm.NewSized(prog, 1<<12)
	defer machine.Release()
	prof := predict.NewProfile(prog)
	if err := machine.Run(prof.Record); err != nil {
		t.Fatal(err)
	}
	st, err := NewStatic(prog, prof.Predictor())
	if err != nil {
		t.Fatal(err)
	}
	machine.Reset()
	var events []vm.Event
	if err := machine.Run(func(ev vm.Event) { events = append(events, ev) }); err != nil {
		t.Fatal(err)
	}
	return st, events, len(machine.Mem)
}

// cfgName renders a configuration for test failure messages.
func cfgName(cfg Config) string {
	lat := "unit"
	if cfg.Latency != nil {
		lat = "lat"
	}
	return fmt.Sprintf("%v/unroll=%v/%s", cfg.Model, cfg.Unrolling, lat)
}

// chunkify annotates a trace into ChunkEvents-sized columnar chunks
// with one throwaway analyzer pinning the (Static, lane 0) shape.
func chunkify(st *Static, events []vm.Event, memWords int) []*Chunk {
	return annotateChunks(NewAnnotator(NewAnalyzer(st, SPCDMF, false, memWords)), events)
}

// annotateChunks annotates a trace through an into ChunkEvents-sized
// columnar chunks.
func annotateChunks(an *Annotator, events []vm.Event) []*Chunk {
	var chunks []*Chunk
	c := NewChunk(ChunkEvents)
	for _, ev := range events {
		c.Append(an.Annotate(ev))
		if c.Len() == ChunkEvents {
			chunks = append(chunks, c)
			c = NewChunk(ChunkEvents)
		}
	}
	if c.Len() > 0 {
		chunks = append(chunks, c)
	}
	return chunks
}

// storeRoundTrip writes chunks in the trace store's on-disk frame
// format and reads them back as zero-copy views, the frames
// tracestore.(*Replay).Run hands to ReplayChunks.
func storeRoundTrip(t testing.TB, chunks []*Chunk) []*Chunk {
	t.Helper()
	var buf bytes.Buffer
	w, err := trace.NewChunkWriter(&buf, []byte("fused"), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range chunks {
		if err := w.WriteFrame(c.Lanes()); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	cf, err := trace.OpenChunkFile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	views := make([]*Chunk, cf.NumFrames())
	for i := range views {
		views[i] = ChunkView(cf.Frame(i))
	}
	return views
}

// checkFused steps one model set three reference ways — raw Step, the
// generic loop over the chunks — and through every fusing replay path,
// and requires every member of every fused replay to have been fused
// and to match.
func checkFused(t testing.TB, name string, st *Static, events []vm.Event, chunks []*Chunk,
	memWords int, models []Model, unroll bool) {
	t.Helper()
	build := func() []*Analyzer {
		as := make([]*Analyzer, len(models))
		for i, m := range models {
			as[i] = NewAnalyzer(st, m, unroll, memWords)
		}
		return as
	}
	raw := build()
	stepAll(events, raw)
	want := resultsOf(raw)
	gen := build()
	for _, c := range chunks {
		for _, a := range gen {
			a.StepChunk(c)
		}
	}
	label := fmt.Sprintf("%s %v unroll=%v", name, models, unroll)
	if got := resultsOf(gen); !reflect.DeepEqual(got, want) {
		t.Errorf("%s: generic loop diverges from Step\ngot:  %+v\nwant: %+v", label, got, want)
	}
	ctx := context.Background()
	views := storeRoundTrip(t, chunks)
	for _, path := range []struct {
		name   string
		replay func([]*Analyzer) error
	}{
		{"ring", func(as []*Analyzer) error { return ReplayWith(ctx, ReplayOptions{}, replayFromEvents(events), as...) }},
		{"inline", func(as []*Analyzer) error { return SerialReplay(ctx, replayFromEvents(events), as...) }},
		{"store", func(as []*Analyzer) error { return ReplayChunks(ctx, views, as...) }},
	} {
		as := build()
		if err := path.replay(as); err != nil {
			t.Fatalf("%s %s: %v", label, path.name, err)
		}
		for _, a := range as {
			if a.phase != phaseFused {
				t.Fatalf("%s %s: %v analyzer was not fused", label, path.name, a.model)
			}
		}
		if got := resultsOf(as); !reflect.DeepEqual(got, want) {
			t.Errorf("%s %s: fused set diverges from Step\ngot:  %+v\nwant: %+v", label, path.name, got, want)
		}
	}
}

// TestFusedMatchesGeneric is the equivalence oracle of the fused
// kernel over seeded single-procedure programs, a recursive one and
// lazyFoldSrc, every set; and over a suite benchmark's trace, many
// chunks long, the full set and the one with repeats.
func TestFusedMatchesGeneric(t *testing.T) {
	type traced struct {
		name     string
		st       *Static
		events   []vm.Event
		memWords int
	}
	var traces []traced
	for _, seed := range []int64{1, 20260808} {
		st, events, memWords := seededTrace(t, seed)
		traces = append(traces, traced{fmt.Sprintf("seed %d", seed), st, events, memWords})
	}
	st, events, memWords := sourceTrace(t, recursiveSrc)
	traces = append(traces, traced{"recursive", st, events, memWords})
	st, events, memWords = sourceTrace(t, lazyFoldSrc)
	traces = append(traces, traced{"lazy fold", st, events, memWords})
	// The generic loop pins the cycles lazyFoldSrc documents, so each
	// model's last cycle still comes from the case it names.
	lazy := NewGroup(st, memWords, AllModels(), false)
	stepAll(events, lazy.Analyzers)
	for _, r := range lazy.Results() {
		if r.Cycles != lazyFoldCycles[r.Model] {
			t.Errorf("lazy fold: %v last cycle %d, want %d", r.Model, r.Cycles, lazyFoldCycles[r.Model])
		}
	}
	for _, tr := range traces {
		chunks := chunkify(tr.st, tr.events, tr.memWords)
		for _, models := range fusedSets() {
			for _, unroll := range []bool{false, true} {
				checkFused(t, tr.name, tr.st, tr.events, chunks, tr.memWords, models, unroll)
			}
		}
	}
	st, events, memWords = buildBenchTrace(t, "irsim")
	chunks := chunkify(st, events, memWords)
	sets := fusedSets()
	for _, models := range [][]Model{sets[0], sets[len(sets)-1]} {
		for _, unroll := range []bool{false, true} {
			checkFused(t, "irsim", st, events, chunks, memWords, models, unroll)
		}
	}
}

// FuzzFusedMatchesGeneric widens TestFusedMatchesGeneric to fuzzed
// genProgram seeds, model subsets (one bit per model; no bit set means
// all seven) and unroll settings, and with unrolling off also checks
// every selected model against the independent reference scheduler
// (reference_test.go), with unit latency and an unbounded window and
// again with a fuzzed window and latency table.  make faultcheck gives
// it a fuzzing budget.
func FuzzFusedMatchesGeneric(f *testing.F) {
	f.Add(int64(1), uint8(0x7F), false, uint8(0), int64(0))
	f.Add(int64(77), uint8(0x13), true, uint8(2), int64(5))
	f.Add(int64(424242), uint8(0x48), false, uint8(3), int64(11))
	f.Add(int64(20260808), uint8(0x26), true, uint8(1), int64(0))
	f.Add(int64(3), uint8(0x7F), true, uint8(16), int64(-4)) // ends in genProgram's guarded moves
	f.Fuzz(func(t *testing.T, seed int64, mask uint8, unroll bool, window uint8, latSeed int64) {
		var models []Model
		for _, m := range AllModels() {
			if mask&(1<<uint(m)) != 0 {
				models = append(models, m)
			}
		}
		if len(models) == 0 {
			models = AllModels()
		}
		st, events, memWords := seededTrace(t, seed)
		chunks := chunkify(st, events, memWords)
		checkFused(t, fmt.Sprintf("seed %d", seed), st, events, chunks, memWords, models, unroll)
		if unroll {
			return
		}
		// The generic loop against the reference, once as the fused
		// sets run and once with the fuzzed window (0 is unbounded) and
		// latency table (latSeed 0 is unit latency), tracking widths.
		var lat func(isa.Op) int64
		if latSeed != 0 {
			lat = randomLatencies(rand.New(rand.NewSource(latSeed)))
		}
		for _, m := range models {
			for _, cfg := range []Config{
				{Model: m, MemWords: memWords},
				{Model: m, MemWords: memWords, Window: int(window), Latency: lat, TrackWidths: true},
			} {
				a := NewAnalyzerConfig(st, cfg)
				stepAll(events, []*Analyzer{a})
				if got, want := a.Result(), referenceSchedule(st.Prog, events, cfg, st.Pred); !sameSchedule(got, want) {
					t.Errorf("seed %d model %s window %d latSeed %d widths %v: analyzer (%d instrs, %d cycles) != reference (%d, %d)",
						seed, m, cfg.Window, latSeed, cfg.TrackWidths, got.Instructions, got.Cycles, want.Instructions, want.Cycles)
				}
			}
		}
	})
}

// stepConfigs enumerates the model × unroll × latency grid: the
// unit-latency half forms fused sets, the default-latency-table half
// steps the generic loop.
func stepConfigs(memWords int) []Config {
	var cfgs []Config
	for _, m := range AllModels() {
		for _, unroll := range []bool{false, true} {
			cfgs = append(cfgs,
				Config{Model: m, Unrolling: unroll, MemWords: memWords},
				Config{Model: m, Unrolling: unroll, MemWords: memWords, Latency: DefaultLatencies},
			)
		}
	}
	return cfgs
}

// TestFusedParallelAndSerial replays fused sets and generic consumers
// side by side — both unroll settings, unit latency and latency tables —
// through the inline loop (SerialReplay) and the ring (ReplayWith), and
// checks both against the raw Step reference.  Run under -race (make
// race) this also pins the fused kernel race-clean across the ring's
// worker goroutines.
func TestFusedParallelAndSerial(t *testing.T) {
	st, events, memWords := seededTrace(t, 424242)
	build := func() []*Analyzer {
		var as []*Analyzer
		for _, cfg := range stepConfigs(memWords) {
			as = append(as, NewAnalyzerConfig(st, cfg))
		}
		return as
	}
	ref := build()
	stepAll(events, ref)
	want := resultsOf(ref)

	serial := build()
	if err := SerialReplay(context.Background(), replayFromEvents(events), serial...); err != nil {
		t.Fatal(err)
	}
	if got := resultsOf(serial); !reflect.DeepEqual(got, want) {
		t.Errorf("SerialReplay results diverge from raw Step reference")
	}

	par := build()
	if err := ReplayWith(context.Background(), ReplayOptions{}, replayFromEvents(events), par...); err != nil {
		t.Fatal(err)
	}
	if got := resultsOf(par); !reflect.DeepEqual(got, want) {
		t.Errorf("parallel replay results diverge from raw Step reference")
	}
}

// TestStepperCoverage pins which stepper covers which analyzer: the
// fast configuration fuses, one set per Static × unroll setting ×
// table size, while a windowed, width-tracking, latency-table or
// OnSchedule analyzer steps alone on the generic loop.
func TestStepperCoverage(t *testing.T) {
	st, events, memWords := seededTrace(t, 77)
	fast := func(m Model, unroll bool, words int) *Analyzer { return NewAnalyzer(st, m, unroll, words) }
	withCB := fast(CD, false, memWords)
	var scheduled int64
	withCB.OnSchedule = func(int32, int64) { scheduled++ }
	outliers := []*Analyzer{
		NewAnalyzerConfig(st, Config{Model: SPCDMF, MemWords: memWords, Window: 64}),
		NewAnalyzerConfig(st, Config{Model: SP, MemWords: memWords, TrackWidths: true}),
		NewAnalyzerConfig(st, Config{Model: SPCDMF, Unrolling: true, MemWords: memWords, Latency: DefaultLatencies}),
		withCB,
	}
	as := []*Analyzer{fast(Base, false, memWords), outliers[0], fast(SP, true, memWords), outliers[1],
		fast(Oracle, false, memWords), outliers[2], fast(CDMF, true, memWords), withCB,
		fast(Oracle, false, 2*memWords)}
	assignLanes(as)
	cons := splitConsumers(as, false)

	// Sets in order of first member: plain, unrolled, plain at twice the
	// table size; every outlier alone at its position.
	wantSets := [][]*Analyzer{{as[0], as[4]}, {as[2], as[6]}, {as[8]}}
	var sets [][]*Analyzer
	var generic []*Analyzer
	for _, cn := range cons {
		if cn.set != nil {
			sets = append(sets, cn.set.members)
		} else {
			generic = append(generic, cn.a)
		}
	}
	same := func(x, y []*Analyzer) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	}
	if len(sets) != len(wantSets) {
		t.Fatalf("%d fused sets, want %d", len(sets), len(wantSets))
	}
	for i := range sets {
		if !same(sets[i], wantSets[i]) {
			t.Errorf("fused set %d has the wrong members", i)
		}
	}
	if !same(generic, outliers) {
		t.Errorf("generic consumers = %d analyzers, want the %d outliers in order", len(generic), len(outliers))
	}
	for _, a := range outliers {
		if a.phase != phaseFresh {
			t.Errorf("%v outlier was claimed by a fused set", a.model)
		}
	}

	// In a replay each outlier steps the generic loop and matches its
	// raw Step reference, and the OnSchedule callback fires once per
	// scheduled instruction.
	for i, cfg := range []Config{
		{Model: SPCDMF, MemWords: memWords, Window: 64},
		{Model: SP, MemWords: memWords, TrackWidths: true},
		{Model: SPCDMF, Unrolling: true, MemWords: memWords, Latency: DefaultLatencies},
		{Model: CD, MemWords: memWords},
	} {
		a := outliers[i]
		run := []*Analyzer{a, NewAnalyzer(st, Oracle, false, memWords)}
		if err := ReplayWith(context.Background(), ReplayOptions{}, replayFromEvents(events), run...); err != nil {
			t.Fatal(err)
		}
		if a.phase != phaseStepped {
			t.Errorf("%s: stepped through a fused set", cfgName(cfg))
		}
		raw := NewAnalyzerConfig(st, cfg)
		for _, ev := range events {
			raw.Step(ev)
		}
		if got, want := a.Result(), raw.Result(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: generic consumer diverges from raw Step\ngot:  %+v\nwant: %+v", cfgName(cfg), got, want)
		}
	}
	if got := withCB.Result(); scheduled != got.Instructions {
		t.Errorf("OnSchedule fired %d times, want one per scheduled instruction (%d)",
			scheduled, got.Instructions)
	}
}

// TestStepChunkFallbacks checks that a direct StepChunk call — the
// generic loop — matches the raw Step path for configurations inside
// and outside the fast configuration.
func TestStepChunkFallbacks(t *testing.T) {
	st, events, memWords := seededTrace(t, 77)
	chunks := chunkify(st, events, memWords)
	for _, cfg := range []Config{
		{Model: SPCDMF, MemWords: memWords},
		{Model: SPCDMF, MemWords: memWords, Window: 64},
		{Model: SP, MemWords: memWords, TrackWidths: true},
		{Model: SPCDMF, Unrolling: true, MemWords: memWords, Latency: DefaultLatencies},
	} {
		chunked := NewAnalyzerConfig(st, cfg)
		for _, c := range chunks {
			chunked.StepChunk(c)
		}
		raw := NewAnalyzerConfig(st, cfg)
		for _, ev := range events {
			raw.Step(ev)
		}
		if got, want := chunked.Result(), raw.Result(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: StepChunk diverges from raw Step\ngot:  %+v\nwant: %+v", cfgName(cfg), got, want)
		}
	}
}

// TestSteppedAnalyzerNeverFused checks that an analyzer already stepped
// is never fused: a replay that includes it steps it on the generic
// loop, continuing from where it stopped, beside a fused fresh one.
func TestSteppedAnalyzerNeverFused(t *testing.T) {
	st, events, memWords := sourceTrace(t, recursiveSrc)
	// Two chunks: one stepped before the replay, one by it.
	c := chunkify(st, events, memWords)[0]
	half := c.Len() / 2
	chunks := []*Chunk{
		ChunkView(c.base, c.addr[:half], c.idx[:half], c.flags[:half]),
		ChunkView(c.base+int64(half), c.addr[half:], c.idx[half:], c.flags[half:]),
	}
	started := NewAnalyzer(st, SPCD, true, memWords)
	fresh := NewAnalyzer(st, SPCD, true, memWords)
	started.StepChunk(chunks[0])
	if err := ReplayChunks(context.Background(), chunks[1:], started, fresh); err != nil {
		t.Fatal(err)
	}
	if started.phase != phaseStepped {
		t.Fatal("an analyzer stepped before its replay was fused")
	}
	if fresh.phase != phaseFused {
		t.Fatal("a fresh fast-configured analyzer was not fused")
	}
	raw := NewAnalyzer(st, SPCD, true, memWords)
	for _, ev := range events {
		raw.Step(ev)
	}
	if got, want := started.Result(), raw.Result(); !reflect.DeepEqual(got, want) {
		t.Errorf("pre-stepped analyzer diverges from raw Step\ngot:  %+v\nwant: %+v", got, want)
	}
}

// TestFusedMemberCannotStepAlone checks that stepping a fused member on
// its own after its replay panics with a message that says why: its
// set kept the per-model tables, so the analyzer has none to continue
// from.
func TestFusedMemberCannotStepAlone(t *testing.T) {
	st, events, memWords := seededTrace(t, 1)
	g := NewGroup(st, memWords, AllModels(), false)
	if err := ReplayWith(context.Background(), ReplayOptions{}, replayFromEvents(events), g.Analyzers...); err != nil {
		t.Fatal(err)
	}
	chunks := chunkify(st, events, memWords)
	for name, step := range map[string]func(*Analyzer){
		"Step":      func(a *Analyzer) { a.Step(events[0]) },
		"StepChunk": func(a *Analyzer) { a.StepChunk(chunks[0]) },
		"replay":    func(a *Analyzer) { _ = ReplayChunks(context.Background(), chunks, a) },
	} {
		func() {
			defer func() {
				p := recover()
				if !strings.Contains(fmt.Sprint(p), "fused set") {
					t.Errorf("%s on a fused member: panic %v, want one naming the fused set", name, p)
				}
			}()
			step(g.Analyzers[3])
		}()
	}
}

// TestReplayHooksConsumerPerAnalyzer checks that a replay with a
// BeforeChunk hook gives every analyzer its own consumer, so a fault
// plan's consumer ids name analyzers, and that each such consumer is
// still a fused set (of one) computing the same results.
func TestReplayHooksConsumerPerAnalyzer(t *testing.T) {
	st, events, memWords := seededTrace(t, 424242)
	ref := NewGroup(st, memWords, AllModels(), true)
	stepAll(events, ref.Analyzers)
	for _, path := range []string{"group", "lone"} {
		g := NewGroup(st, memWords, AllModels(), true)
		as := g.Analyzers
		if path == "lone" {
			as = as[:1]
		}
		seen := make([]bool, len(as))
		hooks := &ReplayHooks{BeforeChunk: func(id int, c *Chunk) int {
			seen[id] = true // each id is stepped by one goroutine only
			return c.Len()
		}}
		if err := ReplayWith(context.Background(), ReplayOptions{Hooks: hooks}, replayFromEvents(events), as...); err != nil {
			t.Fatal(err)
		}
		for id, a := range as {
			if !seen[id] {
				t.Errorf("%s: consumer %d never stepped", path, id)
			}
			if a.phase != phaseFused {
				t.Errorf("%s: %v analyzer was not fused", path, a.model)
			}
			if got, want := a.Result(), ref.Analyzers[id].Result(); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: %v diverges from raw Step\ngot:  %+v\nwant: %+v", path, a.model, got, want)
			}
		}
	}
}

// TestLoadsReadOneRegister pins the instruction-set fact the fused
// kernel relies on when it reads a load's memory row as the second of
// two rows: every load reads exactly one register.
func TestLoadsReadOneRegister(t *testing.T) {
	for op := isa.Op(0); int(op) < isa.NumOps; op++ {
		if !op.IsLoad() {
			continue
		}
		in := isa.Instr{Op: op, Rd: 1, Rs: 2, Rt: 3}
		if _, _, _, n := in.SrcRegs(); n != 1 {
			t.Errorf("%v reads %d registers; the fused kernel assumes one", op, n)
		}
	}
}
