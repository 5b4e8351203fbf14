package limits

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"ilplimit/internal/vm"
)

// This file pins the contract of the generated steppers (step_gen.go):
// for every model × unroll setting the model's specialization must
// compute Results bit-identical to the generic StepAnnotated loop it
// was derived from — over seeded traces, serially and through the
// parallel fan-out — and the dispatch must fall back to the generic
// path exactly when a configuration leaves the generated set.

// stepConfigs enumerates the model × unroll × latency grid: the
// unit-latency half steps the generated steppers (one per model, both
// unroll settings), the default-latency-table half the generic loop.
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
	an := NewAnnotator(NewAnalyzer(st, SPCDMF, false, memWords))
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

// TestStepperCoverage checks that the generated dispatch table has one
// specialization per model, each distinct, and rejects models outside
// the lattice.
func TestStepperCoverage(t *testing.T) {
	if n := len(steppers); n != 7 {
		t.Fatalf("dispatch table has %d entries, want 7 (one per model)", n)
	}
	seen := map[uintptr]Model{}
	for _, m := range AllModels() {
		f := stepperFor(m)
		if f == nil {
			t.Errorf("stepperFor(%v) = nil, want a generated stepper", m)
			continue
		}
		pc := reflect.ValueOf(f).Pointer()
		if prev, dup := seen[pc]; dup {
			t.Errorf("stepperFor(%v) is stepperFor(%v)'s stepper", m, prev)
		}
		seen[pc] = m
	}
	if stepperFor(Model(-1)) != nil {
		t.Error("stepperFor(-1) != nil")
	}
	if stepperFor(Model(NumModels)) != nil {
		t.Error("stepperFor(NumModels) != nil")
	}
}

// TestGeneratedMatchesGeneric is the equivalence oracle: for every
// unit-latency configuration, stepping the same columnar chunks through
// the model's specialization and through the generic loop (same
// analyzer shape, fast dispatch disabled) must produce identical
// Results — as must the raw self-annotating Step path.  Latency-table
// configurations must install no specialization, and their chunked
// generic loop must match Step too.
func TestGeneratedMatchesGeneric(t *testing.T) {
	for _, seed := range []int64{1, 20260808} {
		st, events, memWords := seededTrace(t, seed)
		chunks := chunkify(st, events, memWords)
		for _, cfg := range stepConfigs(memWords) {
			checkGeneratedMatchesGeneric(t, seed, st, events, chunks, cfg)
		}
	}
}

// FuzzGeneratedMatchesGeneric widens TestGeneratedMatchesGeneric to
// fuzzed genProgram seeds: for every model × unroll setting, the
// generated stepper, the generic loop over the same chunks and the raw
// Step path must agree.  make faultcheck gives it a fuzzing budget.
func FuzzGeneratedMatchesGeneric(f *testing.F) {
	for _, seed := range []int64{1, 77, 424242, 20260808} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		st, events, memWords := seededTrace(t, seed)
		chunks := chunkify(st, events, memWords)
		for _, m := range AllModels() {
			for _, unroll := range []bool{false, true} {
				cfg := Config{Model: m, Unrolling: unroll, MemWords: memWords}
				checkGeneratedMatchesGeneric(t, seed, st, events, chunks, cfg)
			}
		}
	})
}

// checkGeneratedMatchesGeneric steps one configuration three ways —
// StepChunk with its installed stepper, StepChunk forced onto the
// generic loop, and raw Step — and requires identical Results.  A
// stepper must be installed exactly for unit-latency configurations.
func checkGeneratedMatchesGeneric(t *testing.T, seed int64, st *Static, events []vm.Event, chunks []*Chunk, cfg Config) {
	t.Helper()
	spec := NewAnalyzerConfig(st, cfg)
	if installed, want := spec.fast != nil, cfg.Latency == nil; installed != want {
		t.Fatalf("seed %d %s: specialization installed = %v, want %v",
			seed, cfgName(cfg), installed, want)
	}
	gen := NewAnalyzerConfig(st, cfg)
	gen.fast = nil // force the generic StepAnnotated loop
	raw := NewAnalyzerConfig(st, cfg)
	for _, c := range chunks {
		spec.StepChunk(c)
		gen.StepChunk(c)
	}
	for _, ev := range events {
		raw.Step(ev)
	}
	want := gen.Result()
	if got := spec.Result(); !reflect.DeepEqual(got, want) {
		t.Errorf("seed %d %s: generated stepper diverges from generic\ngot:  %+v\nwant: %+v",
			seed, cfgName(cfg), got, want)
	}
	if got := raw.Result(); !reflect.DeepEqual(got, want) {
		t.Errorf("seed %d %s: raw Step path diverges from generic\ngot:  %+v\nwant: %+v",
			seed, cfgName(cfg), got, want)
	}
}

// TestGeneratedParallelAndSerial drives every configuration through
// both replay paths — SerialReplay (the inline chunk loop on the
// caller's goroutine) and the ring fan-out (ReplayWith) — and checks
// both against the raw Step reference.  Run under -race (make race) this also pins
// the specialized steppers race-clean across the ring's worker
// goroutines.
func TestGeneratedParallelAndSerial(t *testing.T) {
	st, events, memWords := seededTrace(t, 424242)
	run := func(_ context.Context, visit func(vm.Event)) error {
		for _, ev := range events {
			visit(ev)
		}
		return nil
	}
	build := func() []*Analyzer {
		var as []*Analyzer
		for _, cfg := range stepConfigs(memWords) {
			as = append(as, NewAnalyzerConfig(st, cfg))
		}
		return as
	}

	ref := build()
	for _, ev := range events {
		for _, a := range ref {
			a.Step(ev)
		}
	}
	want := resultsOf(ref)

	serial := build()
	if err := SerialReplay(context.Background(), run, serial...); err != nil {
		t.Fatal(err)
	}
	if got := resultsOf(serial); !reflect.DeepEqual(got, want) {
		t.Errorf("SerialReplay results diverge from raw Step reference")
	}

	par := build()
	if err := ReplayWith(context.Background(), ReplayOptions{}, run, par...); err != nil {
		t.Fatal(err)
	}
	if got := resultsOf(par); !reflect.DeepEqual(got, want) {
		t.Errorf("parallel replay results diverge from raw Step reference")
	}
}

// TestStepChunkFallbacks checks the dispatch preconditions: finite
// windows, width tracking and latency tables must leave fast == nil at
// construction, an OnSchedule callback must divert StepChunk to the
// generic loop at dispatch time, and every fallback must still match
// the raw Step path bit for bit.
func TestStepChunkFallbacks(t *testing.T) {
	st, events, memWords := seededTrace(t, 77)
	chunks := chunkify(st, events, memWords)

	if a := NewAnalyzerConfig(st, Config{Model: SPCDMF, MemWords: memWords, Window: 64}); a.fast != nil {
		t.Error("finite window installed a specialized stepper")
	}
	if a := NewAnalyzerConfig(st, Config{Model: SPCDMF, MemWords: memWords, TrackWidths: true}); a.fast != nil {
		t.Error("width tracking installed a specialized stepper")
	}
	if a := NewAnalyzerConfig(st, Config{Model: SPCDMF, MemWords: memWords, Latency: DefaultLatencies}); a.fast != nil {
		t.Error("latency table installed a specialized stepper")
	}

	for _, cfg := range []Config{
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
			t.Errorf("%s: generic StepChunk fallback diverges from raw Step\ngot:  %+v\nwant: %+v",
				cfgName(cfg), got, want)
		}
	}

	// OnSchedule is set after construction, so the specialized stepper
	// is installed but must be bypassed per chunk.
	withCB := NewAnalyzerConfig(st, Config{Model: CD, MemWords: memWords})
	if withCB.fast == nil {
		t.Fatal("CD/plain/unit should have a specialization")
	}
	var scheduled int64
	withCB.OnSchedule = func(idx int32, cycle int64) { scheduled++ }
	for _, c := range chunks {
		withCB.StepChunk(c)
	}
	if scheduled == 0 {
		t.Error("OnSchedule callback never fired through StepChunk")
	}
	raw := NewAnalyzerConfig(st, Config{Model: CD, MemWords: memWords})
	for _, ev := range events {
		raw.Step(ev)
	}
	if got, want := withCB.Result(), raw.Result(); !reflect.DeepEqual(got, want) {
		t.Errorf("OnSchedule fallback diverges from raw Step\ngot:  %+v\nwant: %+v", got, want)
	}
	if got := withCB.Result(); scheduled != got.Instructions {
		t.Errorf("OnSchedule fired %d times, want one per scheduled instruction (%d)",
			scheduled, got.Instructions)
	}
}
