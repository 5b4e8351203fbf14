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

// TestLaneOverflow pins the MaxLanes overflow rule shared by
// NewAnnotator and AssignReplayLanes: with MaxLanes+1 distinct Statics,
// the first MaxLanes take lanes 0…MaxLanes-1, the extra one gets no
// lane and re-derives its mispredictions through its own predictor, and
// every analyzer still matches its standalone Step run.  The extra
// Static predicts BTFN rather than the profile predictor the others
// use, and on this trace the SP machine schedules the two differently,
// so reading another lane's bits would show in its result.
func TestLaneOverflow(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	prog, err := asm.Assemble(genProgram(rng))
	if err != nil {
		t.Fatal(err)
	}
	machine := vm.NewSized(prog, 1<<16)
	prof := predict.NewProfile(prog)
	if err := machine.Run(prof.Record); err != nil {
		t.Fatal(err)
	}
	machine.Reset()
	var events []vm.Event
	if err := machine.Run(func(ev vm.Event) { events = append(events, ev) }); err != nil {
		t.Fatal(err)
	}
	statics := make([]*Static, MaxLanes+1)
	for i := range statics {
		var o predict.Oracle = prof.Predictor()
		if i == MaxLanes {
			o = predict.BTFN(prog)
		}
		if statics[i], err = NewStatic(prog, o); err != nil {
			t.Fatal(err)
		}
	}
	build := func() []*Analyzer {
		as := make([]*Analyzer, len(statics))
		for i, st := range statics {
			as[i] = NewAnalyzer(st, SP, true, len(machine.Mem))
		}
		return as
	}

	ref := build()
	stepAll(events, ref)
	want := resultsOf(ref)
	if reflect.DeepEqual(want[MaxLanes], want[0]) {
		t.Fatal("BTFN and profile prediction schedule this trace identically; a lane mix-up would not show")
	}

	if n := AssignReplayLanes(build()...); n != MaxLanes {
		t.Errorf("AssignReplayLanes = %d, want %d", n, MaxLanes)
	}
	for name, replay := range map[string]func([]*Analyzer) error{
		"ring": func(as []*Analyzer) error {
			return ReplayWith(context.Background(), ReplayOptions{}, replayFromEvents(events), as...)
		},
		"inline": func(as []*Analyzer) error {
			return SerialReplay(context.Background(), replayFromEvents(events), as...)
		},
	} {
		as := build()
		if an := NewAnnotator(as...); an.Lanes() != MaxLanes {
			t.Errorf("%s: NewAnnotator Lanes() = %d, want %d", name, an.Lanes(), MaxLanes)
		}
		for i, a := range as {
			if laneless := a.mispredMask == 0; laneless != (i == MaxLanes) {
				t.Errorf("%s: analyzer %d laneless = %v", name, i, laneless)
			}
		}
		if err := replay(as); err != nil {
			t.Fatal(err)
		}
		if got := resultsOf(as); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: overflow replay results differ from Step\ngot:  %+v\nwant: %+v", name, got, want)
		}
	}
}
