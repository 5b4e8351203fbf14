package limits

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"ilplimit/internal/asm"
	"ilplimit/internal/bench"
	"ilplimit/internal/minic"
	"ilplimit/internal/predict"
	"ilplimit/internal/telemetry"
	"ilplimit/internal/vm"
)

// buildBenchTrace compiles a suite benchmark, profiles it, and captures
// its full dynamic trace so both scheduling paths can replay the exact
// same event stream.
func buildBenchTrace(t *testing.T, name string) (*Static, []vm.Event, int) {
	t.Helper()
	b, err := bench.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	asmText, err := minic.Compile(b.Source(1))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := asm.Assemble(asmText)
	if err != nil {
		t.Fatal(err)
	}
	machine := vm.NewSized(prog, 1<<20)
	machine.StepLimit = 1 << 32
	prof := predict.NewProfile(prog)
	if err := machine.Run(prof.Record); err != nil {
		t.Fatal(err)
	}
	st, err := NewStatic(prog, prof.Predictor())
	if err != nil {
		t.Fatal(err)
	}
	machine.Reset()
	events := make([]vm.Event, 0, machine.Steps)
	if err := machine.Run(func(ev vm.Event) { events = append(events, ev) }); err != nil {
		t.Fatal(err)
	}
	return st, events, len(machine.Mem)
}

// trackedAnalyzers builds one analyzer per model with width tracking on,
// so the equivalence check covers every Result field the models populate:
// parallelism, segments, widths and recursion drops.
func trackedAnalyzers(st *Static, memWords int, unroll bool) []*Analyzer {
	var as []*Analyzer
	for _, m := range AllModels() {
		as = append(as, NewAnalyzerConfig(st, Config{
			Model: m, Unrolling: unroll, MemWords: memWords, TrackWidths: true,
		}))
	}
	return as
}

// TestReplayMatchesSerial is the equivalence guarantee of the ring:
// fanning the trace out to per-analyzer goroutines must produce
// bit-identical Results to stepping every analyzer serially, for every
// model, with and without unrolling.
func TestReplayMatchesSerial(t *testing.T) {
	benches := []string{"irsim", "ccom"}
	if testing.Short() {
		benches = benches[:1]
	}
	for _, name := range benches {
		t.Run(name, func(t *testing.T) {
			st, events, memWords := buildBenchTrace(t, name)
			for _, unroll := range []bool{false, true} {
				serial := trackedAnalyzers(st, memWords, unroll)
				parallel := trackedAnalyzers(st, memWords, unroll)
				for _, ev := range events {
					for _, a := range serial {
						a.Step(ev)
					}
				}
				if err := ReplayWith(context.Background(), ReplayOptions{}, replayFromEvents(events), parallel...); err != nil {
					t.Fatal(err)
				}
				for i := range serial {
					sr, pr := serial[i].Result(), parallel[i].Result()
					if !reflect.DeepEqual(sr, pr) {
						t.Errorf("unroll=%v %s: parallel result differs\nserial:   %+v\nparallel: %+v",
							unroll, sr.Model, sr, pr)
					}
				}
			}
		})
	}
}

// TestReplayPropagatesRunError checks that a failing trace producer
// surfaces its error after the workers wind down.
func TestReplayPropagatesRunError(t *testing.T) {
	p, err := asm.Assemble(benchProgram)
	if err != nil {
		t.Fatal(err)
	}
	machine := vm.NewSized(p, 1<<12)
	prof := predict.NewProfile(p)
	if err := machine.Run(prof.Record); err != nil {
		t.Fatal(err)
	}
	st, err := NewStatic(p, prof.Predictor())
	if err != nil {
		t.Fatal(err)
	}
	wantErr := errors.New("producer failed")
	machine.Reset()
	// Stream several chunks' worth of real events (exercising slot reuse)
	// before failing.
	err = ReplayWith(context.Background(), ReplayOptions{}, func(ctx context.Context, visit func(vm.Event)) error {
		if err := machine.RunContext(ctx, visit); err != nil {
			return err
		}
		return wantErr
	}, trackedAnalyzers(st, len(machine.Mem), false)...)
	if !errors.Is(err, wantErr) {
		t.Fatalf("ReplayWith error = %v, want %v", err, wantErr)
	}
}

// TestReplayDegenerate covers the no-analyzer and single-analyzer
// shortcuts.
func TestReplayDegenerate(t *testing.T) {
	ran := false
	if err := ReplayWith(context.Background(), ReplayOptions{}, func(_ context.Context, visit func(vm.Event)) error {
		ran = true
		visit(vm.Event{})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("ReplayWith with no analyzers did not run the producer")
	}

	p, err := asm.Assemble(benchProgram)
	if err != nil {
		t.Fatal(err)
	}
	machine := vm.NewSized(p, 1<<12)
	prof := predict.NewProfile(p)
	if err := machine.Run(prof.Record); err != nil {
		t.Fatal(err)
	}
	st, err := NewStatic(p, prof.Predictor())
	if err != nil {
		t.Fatal(err)
	}
	serial := NewAnalyzer(st, SPCDMF, true, len(machine.Mem))
	machine.Reset()
	if err := machine.Run(func(ev vm.Event) { serial.Step(ev) }); err != nil {
		t.Fatal(err)
	}
	lone := NewAnalyzer(st, SPCDMF, true, len(machine.Mem))
	machine.Reset()
	if err := ReplayWith(context.Background(), ReplayOptions{}, machine.RunContext, lone); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial.Result(), lone.Result()) {
		t.Errorf("single-analyzer ReplayWith differs from serial stepping")
	}
}

// TestWidthsGrowPastInitialAllocation is the regression test for width
// tracking on schedules longer than the initial 1024-entry table: the
// per-cycle counts must still cover every instruction and every cycle,
// including the multi-cycle tail a latency model leaves after the last
// issue.
func TestWidthsGrowPastInitialAllocation(t *testing.T) {
	const n = 3000
	src := fmt.Sprintf(`
.proc main
	li   $s0, %d
loop:
	addi $s0, $s0, -1
	bnez $s0, loop
	li   $t0, 144
	li   $t1, 12
	div  $t2, $t0, $t1
	halt
.endproc
`, n)
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	machine := vm.NewSized(p, 1<<12)
	prof := predict.NewProfile(p)
	if err := machine.Run(prof.Record); err != nil {
		t.Fatal(err)
	}
	st, err := NewStatic(p, prof.Predictor())
	if err != nil {
		t.Fatal(err)
	}
	// Base serializes on every branch, so the loop alone schedules across
	// ~2n cycles; the trailing DIV adds a multi-cycle tail past the last
	// issue under the realistic latency model.
	a := NewAnalyzerConfig(st, Config{
		Model: Base, MemWords: len(machine.Mem),
		TrackWidths: true, Latency: DefaultLatencies,
	})
	machine.Reset()
	if err := machine.Run(func(ev vm.Event) { a.Step(ev) }); err != nil {
		t.Fatal(err)
	}
	r := a.Result()
	if r.Cycles <= 1024 {
		t.Fatalf("schedule too short to exercise widths growth: %d cycles", r.Cycles)
	}
	var instrs, cycles int64
	for w, c := range r.Widths {
		instrs += w * c
		cycles += c
	}
	if instrs != r.Instructions {
		t.Errorf("widths cover %d instructions, want %d", instrs, r.Instructions)
	}
	if cycles != r.Cycles {
		t.Errorf("widths cover %d cycles, want %d", cycles, r.Cycles)
	}
}

// TestTimeTablePaging checks the paged dependence table against the dense
// semantics it replaces: zero before any store, values back on load, lazy
// page materialization, and out-of-range addresses still panicking.
func TestTimeTablePaging(t *testing.T) {
	const words = 1 << 20
	tt := newTimeTable(words)
	if n := tt.pagesAllocated(); n != 0 {
		t.Fatalf("fresh table allocated %d pages, want 0", n)
	}
	if got := tt.load(12345); got != 0 {
		t.Fatalf("load of untouched word = %d, want 0", got)
	}
	tt.store(12345, 7)
	tt.store(words-1, 9)
	if got := tt.load(12345); got != 7 {
		t.Errorf("load(12345) = %d, want 7", got)
	}
	if got := tt.load(words - 1); got != 9 {
		t.Errorf("load(last) = %d, want 9", got)
	}
	if got := tt.load(12346); got != 0 {
		t.Errorf("load of untouched neighbor = %d, want 0", got)
	}
	if n := tt.pagesAllocated(); n != 2 {
		t.Errorf("allocated %d pages, want 2", n)
	}
	defer func() {
		if recover() == nil {
			t.Error("out-of-range load did not panic")
		}
	}()
	tt.load(words)
}

// TestAnalyzerMemoryFootprintSparse ties the paging to its purpose: an
// analyzer over a megaword memory must materialize only the pages the
// trace writes, not the whole address space.
func TestAnalyzerMemoryFootprintSparse(t *testing.T) {
	p, err := asm.Assemble(benchProgram)
	if err != nil {
		t.Fatal(err)
	}
	machine := vm.NewSized(p, 1<<20)
	prof := predict.NewProfile(p)
	if err := machine.Run(prof.Record); err != nil {
		t.Fatal(err)
	}
	st, err := NewStatic(p, prof.Predictor())
	if err != nil {
		t.Fatal(err)
	}
	a := NewAnalyzer(st, Oracle, false, len(machine.Mem))
	machine.Reset()
	if err := machine.Run(func(ev vm.Event) { a.Step(ev) }); err != nil {
		t.Fatal(err)
	}
	total := len(a.memTime.pages)
	got := a.memTime.pagesAllocated()
	if got == 0 || got > 8 {
		t.Errorf("allocated %d of %d pages, want a handful (1..8)", got, total)
	}
}

// buildBenchProgramTrace captures the bench program's trace (~280k
// events, dozens of chunks) without the cost of compiling a suite
// benchmark — enough stream for the cancellation tests to cut short.
func buildBenchProgramTrace(t *testing.T) (*Static, []vm.Event, int) {
	t.Helper()
	p, err := asm.Assemble(benchProgram)
	if err != nil {
		t.Fatal(err)
	}
	machine := vm.NewSized(p, 1<<12)
	prof := predict.NewProfile(p)
	if err := machine.Run(prof.Record); err != nil {
		t.Fatal(err)
	}
	st, err := NewStatic(p, prof.Predictor())
	if err != nil {
		t.Fatal(err)
	}
	machine.Reset()
	events := make([]vm.Event, 0, machine.Steps)
	if err := machine.Run(func(ev vm.Event) { events = append(events, ev) }); err != nil {
		t.Fatal(err)
	}
	return st, events, len(machine.Mem)
}

// TestReplayContextPreCanceled: a replay under an already-dead context
// must return vm.ErrCanceled even when the producer ignores the context
// entirely and streams its whole trace.
func TestReplayContextPreCanceled(t *testing.T) {
	st, events, memWords := buildBenchProgramTrace(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := ReplayWith(ctx, ReplayOptions{}, replayFromEvents(events), trackedAnalyzers(st, memWords, false)...)
	if !errors.Is(err, vm.ErrCanceled) {
		t.Fatalf("ReplayWith = %v, want vm.ErrCanceled", err)
	}
}

// TestSerialReplayPreCanceled pins the inline loop's cancellation
// contract: under an already-dead context, a producer that ignores ctx
// and streams its whole trace must not pass for a complete run —
// SerialReplay reports vm.ErrCanceled, and a sink on either replay path
// sees the chunks but never the nil end-of-stream terminator.
func TestSerialReplayPreCanceled(t *testing.T) {
	st, events, memWords := buildBenchProgramTrace(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := SerialReplay(ctx, replayFromEvents(events), trackedAnalyzers(st, memWords, false)...)
	if !errors.Is(err, vm.ErrCanceled) {
		t.Fatalf("SerialReplay = %v, want vm.ErrCanceled", err)
	}
	for _, n := range []int{1, 3} {
		terminated := false
		sink := func(c *Chunk) error {
			if c == nil {
				terminated = true
			}
			return nil
		}
		as := trackedAnalyzers(st, memWords, false)[:n]
		err := ReplayWith(ctx, ReplayOptions{Sink: sink}, replayFromEvents(events), as...)
		if !errors.Is(err, vm.ErrCanceled) {
			t.Errorf("%d analyzer(s): ReplayWith = %v, want vm.ErrCanceled", n, err)
		}
		if terminated {
			t.Errorf("%d analyzer(s): canceled replay handed the sink its end-of-stream terminator", n)
		}
	}
}

// TestReplayContextCancelMidStream cancels deterministically from inside
// the producer after two chunks: the replay must stop publishing at the
// next chunk boundary and report cancellation, not stream to completion.
func TestReplayContextCancelMidStream(t *testing.T) {
	st, events, memWords := buildBenchProgramTrace(t)
	if len(events) < 4*ChunkEvents {
		t.Fatalf("trace too short for a mid-stream cancel: %d events", len(events))
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	as := []*Analyzer{
		NewAnalyzer(st, Oracle, false, memWords),
		NewAnalyzer(st, SP, false, memWords),
	}
	err := ReplayWith(ctx, ReplayOptions{}, func(_ context.Context, visit func(vm.Event)) error {
		for i, ev := range events {
			if i == 2*ChunkEvents {
				cancel()
			}
			visit(ev)
		}
		return nil
	}, as...)
	if !errors.Is(err, vm.ErrCanceled) {
		t.Fatalf("ReplayWith = %v, want vm.ErrCanceled", err)
	}
}

// TestWatchdogKeepsLaggingSurvivorWhole is the regression test for the
// watchdog's slot handoff: a survivor running behind the consumer the
// watchdog detaches must still step the chunk the stalled consumer
// held, so it ends with the complete trace.  Consumer 1 wedges on chunk
// 4.  Consumer 0 lingers on each earlier chunk until the detach is
// counted, or for half the deadline, so it never stalls itself and
// reaches chunk 4 only after the detach on any host: the detach comes
// one deadline after the wedge, and the four lingers span two.
func TestWatchdogKeepsLaggingSurvivorWhole(t *testing.T) {
	const deadline = 400 * time.Millisecond
	const wedge = 4
	st, events, memWords := buildBenchProgramTrace(t)
	build := func() []*Analyzer {
		return NewGroup(st, memWords, []Model{SPCDMF, CD, Oracle}, false).Analyzers
	}
	ref := build()
	stepAll(events, ref)

	m := telemetry.NewRegistry()
	detaches := m.Counter("ring.watchdog_detaches")
	wedged := make(chan struct{})  // closed once consumer 1 holds its chunk
	release := make(chan struct{}) // lets the abandoned consumer exit
	defer close(release)
	hooks := &ReplayHooks{BeforeChunk: func(id int, c *Chunk) int {
		switch chunk := c.Base() / ChunkEvents; {
		case id == 1 && chunk == wedge:
			close(wedged)
			<-release
		case id == 0 && chunk < wedge:
			<-wedged
			for start := time.Now(); detaches.Load() == 0 && time.Since(start) < deadline/2; {
				time.Sleep(time.Millisecond)
			}
		}
		return c.Len()
	}}
	as := build()
	err := ReplayWith(context.Background(), ReplayOptions{Metrics: m, Hooks: hooks, Watchdog: deadline},
		replayFromEvents(events), as...)
	var se *StallError
	if !errors.As(err, &se) || !reflect.DeepEqual(se.Consumers, []int{1}) {
		t.Fatalf("ReplayWith = %v, want a *StallError naming consumer 1", err)
	}
	for _, i := range []int{0, 2} {
		if got, want := as[i].Result(), ref[i].Result(); !reflect.DeepEqual(got, want) {
			t.Errorf("survivor %d (%v) diverges from Step: %d instructions in %d cycles, want %d in %d",
				i, want.Model, got.Instructions, got.Cycles, want.Instructions, want.Cycles)
		}
	}
}

// TestFailingSinkNeverFailsReplay pins ChunkSink's contract on both
// replay paths: a sink that errors, or panics, at its third chunk is
// detached, receives no chunk after that and no nil terminator, and the
// replay returns nil with every analyzer matching a replay without a
// sink.
func TestFailingSinkNeverFailsReplay(t *testing.T) {
	const k = 3
	st, events, memWords := buildBenchProgramTrace(t)
	build := func(n int) []*Analyzer {
		as := NewGroup(st, memWords, AllModels(), true).Analyzers
		return append(as, NewGroup(st, memWords, AllModels(), false).Analyzers...)[:n]
	}
	for _, n := range []int{1, 14} { // the inline loop, the ring
		ref := build(n)
		if err := ReplayWith(context.Background(), ReplayOptions{}, replayFromEvents(events), ref...); err != nil {
			t.Fatal(err)
		}
		for _, fault := range []string{"error", "panic"} {
			chunks, terminated := 0, false
			sink := func(c *Chunk) error {
				if c == nil {
					terminated = true
					return nil
				}
				if chunks++; chunks == k {
					if fault == "panic" {
						panic("injected sink panic")
					}
					return errors.New("injected sink error")
				}
				return nil
			}
			as := build(n)
			if err := ReplayWith(context.Background(), ReplayOptions{Sink: sink}, replayFromEvents(events), as...); err != nil {
				t.Fatalf("%d analyzer(s), sink %s: ReplayWith = %v, want nil", n, fault, err)
			}
			if got, want := resultsOf(as), resultsOf(ref); !reflect.DeepEqual(got, want) {
				t.Errorf("%d analyzer(s), sink %s: results differ from a replay without a sink", n, fault)
			}
			if chunks != k {
				t.Errorf("%d analyzer(s), sink %s: sink received %d chunks, want %d (none after its failure)",
					n, fault, chunks, k)
			}
			if terminated {
				t.Errorf("%d analyzer(s), sink %s: detached sink received the nil terminator", n, fault)
			}
		}
	}
}

// TestReplayChunksFailures pins the stored replay's failure contract.
// A generic consumer whose OnSchedule callback panics, or cancels the
// replay, at its 3×ChunkEvents-th instruction rides beside a fused set
// of all seven models.  The panic surfaces as a *PanicError only after
// the fused set has stepped every chunk and written back, so its
// results equal a clean replay's; the cancellation returns an error
// wrapping vm.ErrCanceled.
func TestReplayChunksFailures(t *testing.T) {
	st, events, memWords := buildBenchProgramTrace(t)
	chunks := chunkify(st, events, memWords)
	clean := NewGroup(st, memWords, AllModels(), false).Analyzers
	if err := ReplayChunks(context.Background(), chunks, clean...); err != nil {
		t.Fatal(err)
	}
	want := resultsOf(clean)
	// faulty is a generic consumer that calls fault at its
	// 3×ChunkEvents-th scheduled instruction.
	faulty := func(fault func()) *Analyzer {
		a := NewAnalyzer(st, CD, false, memWords)
		scheduled := 0
		a.OnSchedule = func(int32, int64) {
			if scheduled++; scheduled == 3*ChunkEvents {
				fault()
			}
		}
		return a
	}

	as := NewGroup(st, memWords, AllModels(), false).Analyzers
	var pe *PanicError
	func() {
		defer func() { pe, _ = recover().(*PanicError) }()
		_ = ReplayChunks(context.Background(), chunks, append(as, faulty(func() { panic("injected consumer panic") }))...)
		t.Error("ReplayChunks returned instead of rethrowing the consumer panic")
	}()
	if pe == nil {
		t.Fatal("consumer panic did not surface from ReplayChunks as a *PanicError")
	}
	if got := resultsOf(as); !reflect.DeepEqual(got, want) {
		t.Errorf("survivors of a consumer panic differ from a clean replay\ngot:  %+v\nwant: %+v", got, want)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	as = NewGroup(st, memWords, AllModels(), false).Analyzers
	if err := ReplayChunks(ctx, chunks, append(as, faulty(cancel))...); !errors.Is(err, vm.ErrCanceled) {
		t.Errorf("ReplayChunks = %v, want vm.ErrCanceled", err)
	}
}
