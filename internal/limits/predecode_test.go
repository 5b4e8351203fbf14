package limits

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"ilplimit/internal/asm"
	"ilplimit/internal/predict"
	"ilplimit/internal/telemetry"
	"ilplimit/internal/vm"
)

// This file pins the pre-decode equivalence guarantee: annotating each
// event once (shared metadata flags + per-lane misprediction bits) and
// consuming it through StepAnnotated must produce Results byte-identical
// to the per-analyzer self-annotating Step path — for every model, both
// unroll configs, serial and parallel, and across analyzers that do not
// share a predictor.

// stepAll drives the raw per-analyzer Step path (each analyzer derives
// its own annotation per event) — the reference the shared pre-decode
// paths are compared against.
func stepAll(events []vm.Event, as []*Analyzer) {
	for _, ev := range events {
		for _, a := range as {
			a.Step(ev)
		}
	}
}

func resultsOf(as []*Analyzer) []Result {
	rs := make([]Result, len(as))
	for i, a := range as {
		rs[i] = a.Result()
	}
	return rs
}

// seededTrace assembles a random seeded program and captures its full
// event trace plus a profiled Static.
func seededTrace(t *testing.T, seed int64) (*Static, []vm.Event, int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	prog, err := asm.Assemble(genProgram(rng))
	if err != nil {
		t.Fatal(err)
	}
	machine := vm.NewSized(prog, 1<<16)
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

// TestAnnotatedMatchesStep checks, over several seeded traces, that the
// shared-annotation replays — the inline chunk loop (SerialReplay) and
// the ring fan-out (ReplayWith) — reproduce the self-annotating Step
// path's Results bit-for-bit for all 7 models × 2 unroll configs.
func TestAnnotatedMatchesStep(t *testing.T) {
	for _, seed := range []int64{1, 20260805, 424242} {
		st, events, memWords := seededTrace(t, seed)
		for _, unroll := range []bool{false, true} {
			ref := trackedAnalyzers(st, memWords, unroll)
			stepAll(events, ref)
			want := resultsOf(ref)

			chunked := trackedAnalyzers(st, memWords, unroll)
			err := SerialReplay(context.Background(), replayFromEvents(events), chunked...)
			if err != nil {
				t.Fatal(err)
			}
			if got := resultsOf(chunked); !reflect.DeepEqual(got, want) {
				t.Errorf("seed %d unroll=%v: SerialReplay results differ\ngot:  %+v\nwant: %+v",
					seed, unroll, got, want)
			}

			par := trackedAnalyzers(st, memWords, unroll)
			if err := ReplayWith(context.Background(), ReplayOptions{}, replayFromEvents(events), par...); err != nil {
				t.Fatal(err)
			}
			if got := resultsOf(par); !reflect.DeepEqual(got, want) {
				t.Errorf("seed %d unroll=%v: parallel annotated results differ\ngot:  %+v\nwant: %+v",
					seed, unroll, got, want)
			}
		}
	}
}

// TestAnnotatedMultiPredictorLanes exercises the per-lane misprediction
// bits: speculative analyzers over three different predictors (profile,
// BTFN, dynamic trace outcomes) share one replay, so the annotation pass
// must keep each predictor's facts in its own lane.  Every analyzer must
// match its own standalone Step run.
func TestAnnotatedMultiPredictorLanes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	prog, err := asm.Assemble(genProgram(rng))
	if err != nil {
		t.Fatal(err)
	}
	machine := vm.NewSized(prog, 1<<16)
	prof := predict.NewProfile(prog)
	dyn := predict.NewDynamicProfile(prog)
	if err := machine.Run(func(ev vm.Event) {
		prof.Record(ev)
		dyn.Record(ev)
	}); err != nil {
		t.Fatal(err)
	}
	machine.Reset()
	var events []vm.Event
	if err := machine.Run(func(ev vm.Event) { events = append(events, ev) }); err != nil {
		t.Fatal(err)
	}

	oracles := []predict.Oracle{prof.Predictor(), predict.BTFN(prog), dyn.Outcomes()}
	models := []Model{SP, SPCD, SPCDMF}
	var statics []*Static
	for _, o := range oracles {
		st, err := NewStatic(prog, o)
		if err != nil {
			t.Fatal(err)
		}
		statics = append(statics, st)
	}
	build := func() []*Analyzer {
		var as []*Analyzer
		for _, st := range statics {
			for _, m := range models {
				as = append(as, NewAnalyzer(st, m, true, len(machine.Mem)))
			}
		}
		return as
	}

	ref := build()
	stepAll(events, ref)
	want := resultsOf(ref)

	par := build()
	if err := ReplayWith(context.Background(), ReplayOptions{}, replayFromEvents(events), par...); err != nil {
		t.Fatal(err)
	}
	if got := resultsOf(par); !reflect.DeepEqual(got, want) {
		t.Errorf("multi-predictor replay results differ\ngot:  %+v\nwant: %+v", got, want)
	}

	// Three distinct Statics must resolve to three predictor lanes.
	if an := NewAnnotator(build()...); an.Lanes() != len(statics) {
		t.Errorf("Lanes() = %d, want %d", an.Lanes(), len(statics))
	}
}

// TestAnnotatedEventRoundTrip pins the reconstruction contract seam code
// (fault injection, journals) relies on: Event() recovers the raw
// vm.Event the annotation was stamped from.
func TestAnnotatedEventRoundTrip(t *testing.T) {
	st, events, memWords := seededTrace(t, 99)
	an := NewAnnotator(NewAnalyzer(st, SPCDMF, false, memWords))
	for _, ev := range events {
		if got := an.Annotate(ev).Event(); got != ev {
			t.Fatalf("round trip mismatch: got %+v, want %+v", got, ev)
		}
	}
}

// TestDecodeTelemetry checks the decode-stage counters: one annotation
// per trace event, branch and mispredict-flag counts, and the lane
// gauge, all flushed by the replay into the registry.
func TestDecodeTelemetry(t *testing.T) {
	st, events, memWords := seededTrace(t, 13)
	var branches int64
	for _, ev := range events {
		if st.Prog.Instrs[ev.Idx].Op.IsBranchConstraint() {
			branches++
		}
	}
	reg := telemetry.NewRegistry()
	as := trackedAnalyzers(st, memWords, false)
	if err := ReplayWith(context.Background(), ReplayOptions{Metrics: reg}, replayFromEvents(events), as...); err != nil {
		t.Fatal(err)
	}
	s := reg.Snapshot()
	if got := s.Counters["decode.events"]; got != int64(len(events)) {
		t.Errorf("decode.events = %d, want %d", got, len(events))
	}
	if got := s.Counters["decode.branches"]; got != branches {
		t.Errorf("decode.branches = %d, want %d", got, branches)
	}
	if got := s.Gauges["decode.lanes"]; got != 1 {
		t.Errorf("decode.lanes = %d, want 1 (all analyzers share one Static)", got)
	}
}

// TestLaneOverflow pins the MaxLanes limit shared by NewAnnotator,
// AssignReplayLanes and every replay.  Speculative analyzers over
// MaxLanes distinct Statics take lanes 0…MaxLanes-1 in order, and a
// replay of all of them — on the ring, inline and from stored chunks —
// matches each analyzer's standalone Step run.  Each Static predicts
// irsim's branches its own way and no two of their SP schedules agree,
// so an analyzer reading another lane's bits would show.  One
// more Static panics, as a mixed-program replay does.  Analyzers of a
// non-speculative model take no lane, so any number of Statics serve
// them.
func TestLaneOverflow(t *testing.T) {
	st, events, memWords := buildBenchTrace(t, "irsim")
	prog := st.Prog
	rng := rand.New(rand.NewSource(11))
	statics := make([]*Static, MaxLanes+1)
	for i := range statics {
		take := make(map[int]bool)
		for idx := range prog.Instrs {
			take[idx] = rng.Intn(2) == 0
		}
		var err error
		if statics[i], err = NewStatic(prog, predict.NewStaticPredictor(prog, take)); err != nil {
			t.Fatal(err)
		}
	}
	build := func(n int, m Model) []*Analyzer {
		as := make([]*Analyzer, n)
		for i := range as {
			as[i] = NewAnalyzer(statics[i], m, true, memWords)
		}
		return as
	}

	ref := build(MaxLanes, SP)
	stepAll(events, ref)
	want := resultsOf(ref)
	for i := range want {
		for j := range want[:i] {
			if reflect.DeepEqual(want[i], want[j]) {
				t.Fatalf("Statics %d and %d schedule this trace identically; a lane mix-up would not show", j, i)
			}
		}
	}

	full := build(MaxLanes, SP)
	if n := AssignReplayLanes(full...); n != MaxLanes {
		t.Errorf("AssignReplayLanes = %d, want %d", n, MaxLanes)
	}
	for i, a := range full {
		if want := uint32(1) << (laneShift + i); a.mispredMask != want {
			t.Errorf("analyzer %d lane mask = %#x, want %#x", i, a.mispredMask, want)
		}
	}
	an := NewAnnotator(full...)
	if an.Lanes() != MaxLanes {
		t.Errorf("NewAnnotator Lanes() = %d, want %d", an.Lanes(), MaxLanes)
	}
	chunks := annotateChunks(an, events)
	if an := NewAnnotator(build(MaxLanes+1, CDMF)...); an.Lanes() != 0 {
		t.Errorf("non-speculative analyzers took %d lanes, want 0", an.Lanes())
	}

	ctx := context.Background()
	for name, replay := range map[string]func([]*Analyzer) error{
		"ring": func(as []*Analyzer) error {
			return ReplayWith(ctx, ReplayOptions{}, replayFromEvents(events), as...)
		},
		"inline": func(as []*Analyzer) error {
			return SerialReplay(ctx, replayFromEvents(events), as...)
		},
		"stored": func(as []*Analyzer) error {
			return ReplayChunks(ctx, chunks, as...)
		},
	} {
		as := build(MaxLanes, SP)
		if err := replay(as); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := resultsOf(as); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: %d-lane replay results differ from Step\ngot:  %+v\nwant: %+v", name, MaxLanes, got, want)
		}
	}

	noTrace := func(context.Context, func(vm.Event)) error { return nil }
	for name, replay := range map[string]func([]*Analyzer){
		"AssignReplayLanes": func(as []*Analyzer) { AssignReplayLanes(as...) },
		"NewAnnotator":      func(as []*Analyzer) { NewAnnotator(as...) },
		"ReplayWith":        func(as []*Analyzer) { _ = ReplayWith(ctx, ReplayOptions{}, noTrace, as...) },
		"SerialReplay":      func(as []*Analyzer) { _ = SerialReplay(ctx, noTrace, as...) },
		"ReplayChunks":      func(as []*Analyzer) { _ = ReplayChunks(ctx, nil, as...) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s over %d distinct Statics did not panic", name, MaxLanes+1)
				}
			}()
			replay(build(MaxLanes+1, SP))
		}()
	}
}
