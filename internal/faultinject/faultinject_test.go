package faultinject

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"ilplimit/internal/asm"
	"ilplimit/internal/limits"
	"ilplimit/internal/predict"
	"ilplimit/internal/telemetry"
	"ilplimit/internal/vm"
)

// testProgram mixes loops, branches, memory traffic and calls, and runs
// long enough (~280k events) to fill every ring slot several times over,
// so chunk-level faults land in a pipeline that is genuinely streaming.
const testProgram = `
.data
buf: .space 256
.proc main
	li   $s0, 2000
outer:
	li   $a0, 0
	jal  body
	addi $s0, $s0, -1
	bnez $s0, outer
	halt
.endproc
.proc body
	la   $t0, buf
	li   $t1, 0
loop:
	andi $t2, $t1, 255
	add  $t3, $t0, $t2
	lw   $t4, 0($t3)
	addi $t4, $t4, 1
	sw   $t4, 0($t3)
	addi $t1, $t1, 1
	li   $t5, 16
	blt  $t1, $t5, loop
	ret
.endproc
`

// fixture is a profiled machine plus its static tables, reset and ready
// for an analysis run.
type fixture struct {
	machine   *vm.VM
	static    *limits.Static
	fullSteps int64
}

func build(t *testing.T) *fixture {
	t.Helper()
	p, err := asm.Assemble(testProgram)
	if err != nil {
		t.Fatal(err)
	}
	machine := vm.NewSized(p, 1<<12)
	prof := predict.NewProfile(p)
	if err := machine.Run(prof.Record); err != nil {
		t.Fatal(err)
	}
	st, err := limits.NewStatic(p, prof.Predictor())
	if err != nil {
		t.Fatal(err)
	}
	full := machine.Steps
	machine.Reset()
	return &fixture{machine: machine, static: st, fullSteps: full}
}

// analyzers builds n analyzers cycling through every machine model.
// Unrolling stays off so loop back-edges reach the analyzers — perfect
// unrolling would hide a corrupted branch event from every model.
func (f *fixture) analyzers(n int) []*limits.Analyzer {
	models := limits.AllModels()
	as := make([]*limits.Analyzer, n)
	for i := range as {
		as[i] = limits.NewAnalyzer(f.static, models[i%len(models)], false, len(f.machine.Mem))
	}
	return as
}

// serialResults computes reference results for the same analyzer
// configuration on the single-goroutine path, leaving the machine reset.
func (f *fixture) serialResults(t *testing.T, n int) []limits.Result {
	t.Helper()
	as := f.analyzers(n)
	f.machine.Reset()
	err := f.machine.Run(func(ev vm.Event) {
		for _, a := range as {
			a.Step(ev)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	f.machine.Reset()
	out := make([]limits.Result, n)
	for i, a := range as {
		out[i] = a.Result()
	}
	return out
}

// TestPlansOnBothReplayPaths runs every consumer and chunk fault
// through ReplayWith with one analyzer (the inline chunk loop) and with
// three (the ring).  Each plan must fire as often as its per-chunk
// contract says, and every analyzer must match Step over exactly the
// trace it was fed: the full trace for the ones the plan leaves alone,
// the prefix for a starved one, the flipped trace when a chunk was
// corrupted before publication.  A panicking consumer has no result to
// check; the replay must surface its panic instead.
func TestPlansOnBothReplayPaths(t *testing.T) {
	f := build(t)
	// Speculative models first, so a corrupted branch outcome shows in
	// consumer 0 on both paths.
	models := []limits.Model{limits.SPCDMF, limits.SP, limits.CD}
	analyzers := func(k int) []*limits.Analyzer {
		as := make([]*limits.Analyzer, k)
		for i := range as {
			as[i] = limits.NewAnalyzer(f.static, models[i], false, len(f.machine.Mem))
		}
		return as
	}
	stepped := func(id int, events []vm.Event) limits.Result {
		a := analyzers(id + 1)[id]
		for _, ev := range events {
			a.Step(ev)
		}
		return a.Result()
	}
	var trace []vm.Event
	if err := f.machine.Run(func(ev vm.Event) { trace = append(trace, ev) }); err != nil {
		t.Fatal(err)
	}
	f.machine.Reset()
	n := int64(len(trace))

	// Corrupt a taken conditional branch past the first chunk.  Under
	// the static profile predictor, flipping its outcome flips its
	// misprediction, so Step over the flipped event is the reference
	// for the flipped lane bits.
	target := int64(-1)
	for _, ev := range trace {
		if ev.Seq > limits.ChunkEvents && ev.Taken && f.static.Prog.Instrs[ev.Idx].Op.IsCondBranch() {
			target = ev.Seq
			break
		}
	}
	if target < 0 {
		t.Fatal("trace has no taken conditional branch past the first chunk")
	}
	flipped := append([]vm.Event(nil), trace...)
	flipped[target].Addr ^= 1
	flipped[target].Taken = !flipped[target].Taken
	if reflect.DeepEqual(stepped(0, flipped), stepped(0, trace)) {
		t.Fatal("the flipped branch leaves consumer 0's schedule unchanged; the corrupt case would prove nothing")
	}

	const dropFrom = limits.ChunkEvents + 1
	const slowEvery = limits.ChunkEvents * 8
	cases := []struct {
		name   string
		plan   func() *Plan
		fired  func(*Plan) int64
		want   int64 // firings
		panics bool  // consumer 0 panics; it has no result to check
		fed0   []vm.Event
		fedAll []vm.Event // what the other consumers step
	}{
		{"panic", func() *Plan { return &Plan{PanicConsumer: 0, PanicAtSeq: limits.ChunkEvents + 5} },
			func(p *Plan) int64 { _, panicked, _, _ := p.Fired(); return panicked }, 1, true, nil, trace},
		{"stall", func() *Plan {
			return &Plan{StallConsumer: 0, StallAtSeq: limits.ChunkEvents + 3, StallFor: 20 * time.Millisecond}
		}, func(p *Plan) int64 { _, _, _, stalled := p.Fired(); return stalled }, 1, false, trace, trace},
		{"slow", func() *Plan { return &Plan{SlowConsumer: 0, SlowEvery: slowEvery, SlowFor: time.Millisecond} },
			(*Plan).FiredSlow, (n-1)/slowEvery + 1, false, trace, trace},
		{"drop", func() *Plan { return &Plan{DropConsumer: 0, DropFromSeq: dropFrom} },
			(*Plan).FiredDropped, n - dropFrom, false, trace[:dropFrom], trace},
		{"corrupt", func() *Plan { return &Plan{CorruptAtSeq: target} },
			func(p *Plan) int64 { _, _, corrupted, _ := p.Fired(); return corrupted }, 1, false, flipped, flipped},
	}
	for _, c := range cases {
		for _, consumers := range []int{1, 3} {
			t.Run(fmt.Sprintf("%s/%d", c.name, consumers), func(t *testing.T) {
				plan := c.plan()
				as := analyzers(consumers)
				f.machine.Reset()
				panicked := false
				func() {
					defer func() { panicked = recover() != nil }()
					err := limits.ReplayWith(context.Background(), limits.ReplayOptions{Hooks: plan.Hooks()},
						f.machine.RunContext, as...)
					if err != nil {
						t.Errorf("ReplayWith = %v", err)
					}
				}()
				if panicked != c.panics {
					t.Errorf("replay panicked = %v, want %v", panicked, c.panics)
				}
				if got := c.fired(plan); got != c.want {
					t.Errorf("plan fired %d times, want %d", got, c.want)
				}
				for id, a := range as {
					fed := c.fedAll
					if id == 0 {
						if c.panics {
							continue
						}
						fed = c.fed0
					}
					if got, want := a.Result(), stepped(id, fed); !reflect.DeepEqual(got, want) {
						t.Errorf("analyzer %d diverged from Step over the trace it was fed\ngot:  %+v\nwant: %+v",
							id, got, want)
					}
				}
			})
		}
	}
}

func TestTrapAtStepAborts(t *testing.T) {
	f := build(t)
	plan := &Plan{TrapAtStep: 20_000}
	f.machine.StepHook = plan.StepHook()
	as := f.analyzers(4)
	err := limits.ReplayWith(context.Background(), limits.ReplayOptions{}, f.machine.RunContext, as...)
	if !errors.Is(err, ErrInjectedTrap) {
		t.Fatalf("ReplayWith error = %v, want ErrInjectedTrap", err)
	}
	if trapped, _, _, _ := plan.Fired(); trapped == 0 {
		t.Fatal("trap never fired")
	}
	if f.machine.Steps >= f.fullSteps {
		t.Fatalf("machine ran to completion (%d steps) despite trap", f.machine.Steps)
	}
}

func TestConsumerPanicDetachesAndRethrows(t *testing.T) {
	f := build(t)
	const n = 4
	ref := f.serialResults(t, n)
	plan := &Plan{PanicConsumer: 2, PanicAtSeq: limits.ChunkEvents*3 + 17}
	as := f.analyzers(n)

	var pe *limits.PanicError
	func() {
		defer func() {
			p := recover()
			if p == nil {
				return
			}
			var ok bool
			if pe, ok = p.(*limits.PanicError); !ok {
				t.Errorf("panic value is %T, want *limits.PanicError", p)
			}
		}()
		_ = limits.ReplayWith(context.Background(), limits.ReplayOptions{Hooks: plan.Hooks()}, f.machine.RunContext, as...)
	}()

	if pe == nil {
		t.Fatal("planned consumer panic never surfaced from ReplayWith")
	}
	if len(pe.Stack) == 0 {
		t.Error("PanicError carries no stack trace")
	}
	if _, panicked, _, _ := plan.Fired(); panicked != 1 {
		t.Fatalf("panic fired %d times, want 1", panicked)
	}
	// The panicking consumer was detached, so every other consumer must
	// have drained the full trace and match the serial reference.
	for i, a := range as {
		if i == plan.PanicConsumer {
			continue
		}
		if !reflect.DeepEqual(a.Result(), ref[i]) {
			t.Errorf("surviving analyzer %d diverged from serial reference", i)
		}
	}
}

func TestStalledConsumerFlowControlRecovers(t *testing.T) {
	f := build(t)
	const n = 3
	ref := f.serialResults(t, n)
	plan := &Plan{
		StallConsumer: 0,
		StallAtSeq:    limits.ChunkEvents + 3,
		StallFor:      150 * time.Millisecond,
	}
	as := f.analyzers(n)
	start := time.Now()
	err := limits.ReplayWith(context.Background(), limits.ReplayOptions{Hooks: plan.Hooks()}, f.machine.RunContext, as...)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < plan.StallFor {
		t.Fatalf("replay finished in %v, before the %v stall elapsed", elapsed, plan.StallFor)
	}
	if _, _, _, stalled := plan.Fired(); stalled != 1 {
		t.Fatalf("stall fired %d times, want 1", stalled)
	}
	// Flow control blocked the producer while the consumer slept; once it
	// woke, no events were lost or reordered.
	for i, a := range as {
		if !reflect.DeepEqual(a.Result(), ref[i]) {
			t.Errorf("analyzer %d diverged after stall", i)
		}
	}
}

func TestCorruptChunkSkewsResults(t *testing.T) {
	f := build(t)
	// Pick a taken branch past the first chunk so the corruption flows
	// through publish, not the degenerate pre-ring path.
	target := int64(-1)
	if err := f.machine.Run(func(ev vm.Event) {
		if target < 0 && ev.Seq > int64(limits.ChunkEvents) && ev.Taken {
			target = ev.Seq
		}
	}); err != nil {
		t.Fatal(err)
	}
	f.machine.Reset()
	if target < 0 {
		t.Fatal("trace has no taken branch past the first chunk")
	}

	const n = 7
	ref := f.serialResults(t, n)
	plan := &Plan{CorruptAtSeq: target}
	as := f.analyzers(n)
	if err := limits.ReplayWith(context.Background(), limits.ReplayOptions{Hooks: plan.Hooks()}, f.machine.RunContext, as...); err != nil {
		t.Fatal(err)
	}
	if _, _, corrupted, _ := plan.Fired(); corrupted == 0 {
		t.Fatal("corruption never fired")
	}
	diverged := false
	for i, a := range as {
		if !reflect.DeepEqual(a.Result(), ref[i]) {
			diverged = true
			break
		}
	}
	if !diverged {
		t.Error("corrupted chunk left every analyzer result unchanged; the fault never reached the consumers")
	}
}

// TestMetricsSurviveConsumerPanic proves telemetry keeps a coherent
// story through the pipeline's worst recovery path: one consumer
// panics mid-trace, the fan-out detaches it and rethrows after the
// survivors drain — and the registry still records the detach, the full
// event stream, and untouched results for every surviving analyzer.
func TestMetricsSurviveConsumerPanic(t *testing.T) {
	f := build(t)
	const n = 4
	ref := f.serialResults(t, n)
	var trace int64
	if err := f.machine.Run(func(vm.Event) { trace++ }); err != nil {
		t.Fatal(err)
	}
	f.machine.Reset()
	plan := &Plan{PanicConsumer: 1, PanicAtSeq: limits.ChunkEvents*2 + 9}
	as := f.analyzers(n)
	m := telemetry.NewRegistry()

	func() {
		defer func() {
			if recover() == nil {
				t.Error("planned consumer panic never surfaced")
			}
		}()
		_ = limits.ReplayWith(context.Background(), limits.ReplayOptions{Metrics: m, Hooks: plan.Hooks()},
			f.machine.RunContext, as...)
	}()

	s := m.Snapshot()
	if got := s.Counters["ring.detaches"]; got != 1 {
		t.Errorf("ring.detaches = %d, want 1", got)
	}
	// The producer kept publishing after the detach: the ring carries the
	// complete trace for the survivors.
	if got := s.Counters["ring.events"]; got != trace {
		t.Errorf("ring.events = %d, want full trace %d", got, trace)
	}
	wantChunks := (trace + limits.ChunkEvents - 1) / limits.ChunkEvents
	if got := s.Counters["ring.chunks"]; got != wantChunks {
		t.Errorf("ring.chunks = %d, want %d", got, wantChunks)
	}
	for i, a := range as {
		if i == plan.PanicConsumer {
			continue
		}
		if !reflect.DeepEqual(a.Result(), ref[i]) {
			t.Errorf("surviving analyzer %d diverged from serial reference", i)
		}
	}
}

func TestCancellationUnblocksStalledRing(t *testing.T) {
	f := build(t)
	// Stall a consumer on its very first chunk for far longer than the
	// deadline: the producer fills every ring slot and blocks, and only
	// the abort path can unwedge the pipeline.
	plan := &Plan{
		StallConsumer: 1,
		StallAtSeq:    5,
		StallFor:      400 * time.Millisecond,
	}
	as := f.analyzers(3)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	err := limits.ReplayWith(ctx, limits.ReplayOptions{Hooks: plan.Hooks()}, f.machine.RunContext, as...)
	if !errors.Is(err, vm.ErrCanceled) {
		t.Fatalf("ReplayWith error = %v, want vm.ErrCanceled", err)
	}
	if _, _, _, stalled := plan.Fired(); stalled != 1 {
		t.Fatalf("stall fired %d times, want 1", stalled)
	}
}

// TestWatchdogDetachesStalledConsumer proves the stall watchdog's core
// promise: a consumer wedged mid-chunk is detached within the deadline
// (not after its sleep finally ends), the replay finishes for everyone
// else with correct results, and the failure surfaces as a structured
// *limits.StallError.
func TestWatchdogDetachesStalledConsumer(t *testing.T) {
	f := build(t)
	const n = 3
	ref := f.serialResults(t, n)
	plan := &Plan{
		StallConsumer: 1,
		StallAtSeq:    limits.ChunkEvents + 3,
		StallFor:      3 * time.Second, // far beyond the deadline
	}
	as := f.analyzers(n)
	m := telemetry.NewRegistry()
	start := time.Now()
	err := limits.ReplayWith(context.Background(),
		limits.ReplayOptions{Metrics: m, Hooks: plan.Hooks(), Watchdog: 100 * time.Millisecond},
		f.machine.RunContext, as...)
	elapsed := time.Since(start)

	var se *limits.StallError
	if !errors.As(err, &se) {
		t.Fatalf("Replay error = %v, want *limits.StallError", err)
	}
	if len(se.Consumers) != 1 || se.Consumers[0] != plan.StallConsumer {
		t.Fatalf("StallError.Consumers = %v, want [%d]", se.Consumers, plan.StallConsumer)
	}
	if se.Deadline != 100*time.Millisecond {
		t.Errorf("StallError.Deadline = %v", se.Deadline)
	}
	if elapsed >= plan.StallFor {
		t.Fatalf("replay took %v: it waited out the stall instead of detaching", elapsed)
	}
	if _, _, _, stalled := plan.Fired(); stalled != 1 {
		t.Fatalf("stall fired %d times, want 1", stalled)
	}
	s := m.Snapshot()
	if got := s.Counters["ring.watchdog_detaches"]; got != 1 {
		t.Errorf("ring.watchdog_detaches = %d, want 1", got)
	}
	if got := s.Counters["ring.detaches"]; got != 1 {
		t.Errorf("ring.detaches = %d, want 1", got)
	}
	// Every surviving consumer drained the full trace.
	for i, a := range as {
		if i == plan.StallConsumer {
			continue
		}
		if !reflect.DeepEqual(a.Result(), ref[i]) {
			t.Errorf("surviving analyzer %d diverged after watchdog detach", i)
		}
	}
}

// TestWatchdogToleratesSlowConsumer drives the SlowConsumer plan: a
// consumer that is delayed on every chunk but keeps completing them
// within the deadline must never be detached, and the replay must end
// with every analyzer correct.
func TestWatchdogToleratesSlowConsumer(t *testing.T) {
	f := build(t)
	const n = 3
	ref := f.serialResults(t, n)
	plan := &Plan{
		SlowConsumer: 0,
		SlowEvery:    limits.ChunkEvents * 8, // a handful of delays across the trace
		SlowFor:      20 * time.Millisecond,  // well inside the deadline
	}
	as := f.analyzers(n)
	err := limits.ReplayWith(context.Background(),
		limits.ReplayOptions{Hooks: plan.Hooks(), Watchdog: 500 * time.Millisecond},
		f.machine.RunContext, as...)
	if err != nil {
		t.Fatalf("Replay error = %v, want nil (slow progress is not a stall)", err)
	}
	if plan.FiredSlow() == 0 {
		t.Fatal("slow-consumer plan never fired")
	}
	for i, a := range as {
		if !reflect.DeepEqual(a.Result(), ref[i]) {
			t.Errorf("analyzer %d diverged under the slow-consumer plan", i)
		}
	}
}

// TestDropPlanStarvesOneConsumer checks the drop plan skews exactly the
// chosen consumer and leaves its siblings on the reference schedule.
func TestDropPlanStarvesOneConsumer(t *testing.T) {
	f := build(t)
	const n = 3
	ref := f.serialResults(t, n)
	plan := &Plan{DropConsumer: 2, DropFromSeq: limits.ChunkEvents + 1}
	as := f.analyzers(n)
	if err := limits.ReplayWith(context.Background(), limits.ReplayOptions{Hooks: plan.Hooks()}, f.machine.RunContext, as...); err != nil {
		t.Fatal(err)
	}
	if plan.FiredDropped() == 0 {
		t.Fatal("drop plan never fired")
	}
	for i, a := range as {
		same := reflect.DeepEqual(a.Result(), ref[i])
		if i == plan.DropConsumer && same {
			t.Errorf("starved analyzer %d still matches the full-trace reference", i)
		}
		if i != plan.DropConsumer && !same {
			t.Errorf("analyzer %d diverged though only consumer %d was starved", i, plan.DropConsumer)
		}
	}
}

// TestCorruptionRoundTripLossless pins the columnar corruption contract:
// the chunks the consumers actually observe must reconstruct, event for
// event, the annotated trace — except at the one planned sequence
// number, where exactly the documented facts are flipped (address bit,
// branch outcome, per-lane misprediction bits) with sequence and index
// intact.  Anything else means the Chunk round trip, not the plan, is
// mutating the trace.
func TestCorruptionRoundTripLossless(t *testing.T) {
	f := build(t)

	// Independent annotation of the full trace: same Static, same single
	// predictor lane as the replay below.
	refAnn := limits.NewAnnotator(f.analyzers(1)...)
	var want []limits.AnnotatedEvent
	if err := f.machine.Run(func(ev vm.Event) {
		want = append(want, refAnn.Annotate(ev))
	}); err != nil {
		t.Fatal(err)
	}
	f.machine.Reset()

	// Corrupt a taken branch past the first chunk.
	target := int64(-1)
	for _, ae := range want {
		raw := ae.Event()
		if ae.Seq > int64(limits.ChunkEvents) && raw.Taken && ae.Flags&limits.FlagBranch != 0 {
			target = ae.Seq
			break
		}
	}
	if target < 0 {
		t.Fatal("trace has no taken branch past the first chunk")
	}

	plan := &Plan{CorruptAtSeq: target}
	hooks := plan.Hooks()
	corrupt := hooks.OnPublish
	got := make([]limits.AnnotatedEvent, 0, len(want))
	hooks.OnPublish = func(chunk int64, c *limits.Chunk) {
		corrupt(chunk, c)
		got = append(got, c.Events(nil)...)
	}
	as := f.analyzers(3)
	if err := limits.ReplayWith(context.Background(), limits.ReplayOptions{Hooks: hooks}, f.machine.RunContext, as...); err != nil {
		t.Fatal(err)
	}
	if _, _, corrupted, _ := plan.Fired(); corrupted != 1 {
		t.Fatalf("corruption fired %d times, want 1", corrupted)
	}

	if len(got) != len(want) {
		t.Fatalf("observed %d events through publish, want %d", len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if w.Seq == target {
			exp := w
			exp.Addr ^= 1
			exp.Flags ^= limits.FlagTaken | limits.FlagMispredAll
			if g != exp {
				t.Fatalf("corrupted event: got %+v, want exactly the planned flips %+v (from %+v)", g, exp, w)
			}
			continue
		}
		if g != w {
			t.Fatalf("event %d changed through the columnar round trip: got %+v, want %+v", i, g, w)
		}
	}
}
