package tracestore_test

import (
	"context"
	"errors"
	"os"
	"reflect"
	"strings"
	"testing"

	"ilplimit/internal/asm"
	"ilplimit/internal/iofault"
	"ilplimit/internal/isa"
	"ilplimit/internal/limits"
	"ilplimit/internal/minic"
	"ilplimit/internal/predict"
	"ilplimit/internal/trace"
	"ilplimit/internal/tracestore"
	"ilplimit/internal/vm"
)

const testSrc = `
int a[64];
int main() {
	int i, j, s;
	s = 0;
	for (i = 0; i < 40; i++) {
		a[i % 64] = i * 3;
		for (j = 0; j < 8; j++) {
			if (a[j] > s) s = a[j];
			else s = s + 1;
		}
	}
	print(s);
	return 0;
}
`

// buildProgram compiles the test program.
func buildProgram(t *testing.T) *isa.Program {
	t.Helper()
	asmText, err := minic.Compile(testSrc)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := asm.Assemble(asmText)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// profileProgram runs the profiling pass and returns the machine (reset,
// ready for the analysis pass) and the annotated Static.
func profileProgram(t *testing.T, prog *isa.Program) (*vm.VM, *limits.Static) {
	t.Helper()
	machine := vm.NewSized(prog, 1<<14)
	prof := predict.NewProfile(prog)
	if err := machine.Run(prof.Record); err != nil {
		t.Fatal(err)
	}
	st, err := limits.NewStatic(prog, prof.Predictor())
	if err != nil {
		t.Fatal(err)
	}
	machine.Reset()
	return machine, st
}

// makeCells builds one analyzer per model × unroll × latency cell — the
// full grid the equivalence guarantee covers: the unit-latency cells
// step the generated per-model steppers, the latency-table cells the
// generic StepAnnotated loop.
func makeCells(st *limits.Static, memWords int) []*limits.Analyzer {
	var cells []*limits.Analyzer
	for _, m := range limits.AllModels() {
		for _, unroll := range []bool{false, true} {
			for _, lat := range []func(isa.Op) int64{nil, limits.DefaultLatencies} {
				cells = append(cells, limits.NewAnalyzerConfig(st, limits.Config{
					Model: m, Unrolling: unroll, MemWords: memWords, Latency: lat,
				}))
			}
		}
	}
	return cells
}

func testKey(prog *isa.Program, st *limits.Static, lanes int) tracestore.Key {
	return tracestore.Key{
		Bench:      "equiv",
		ProgramCRC: tracestore.ProgramCRC(prog),
		Annotation: st.AnnotationFingerprint(),
		Predictors: "profile",
		Lanes:      lanes,
	}
}

// TestCachedVsLiveEquivalence is the store's core guarantee: every
// model × unroll × latency cell computes byte-identical results whether
// it stepped the live annotated stream or a stored trace, serial or
// parallel.
func TestCachedVsLiveEquivalence(t *testing.T) {
	prog := buildProgram(t)
	machine, st := profileProgram(t, prog)
	memWords := len(machine.Mem)

	store, err := tracestore.Open(iofault.OS(), t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	live := makeCells(st, memWords)
	lanes := limits.AssignReplayLanes(live...)
	key := testKey(prog, st, lanes)
	pop, err := store.BeginPopulate(key, []byte(`{"Steps":1}`))
	if err != nil {
		t.Fatal(err)
	}
	err = limits.ReplayWith(context.Background(), limits.ReplayOptions{Sink: pop.Sink()}, machine.RunContext, live...)
	if err != nil {
		pop.Abort()
		t.Fatal(err)
	}
	if err := pop.Commit(); err != nil {
		t.Fatal(err)
	}
	if pop.Events() != machine.Steps {
		t.Fatalf("stored %d events, VM retired %d", pop.Events(), machine.Steps)
	}

	for _, serial := range []bool{true, false} {
		warm := makeCells(st, memWords)
		rep, err := store.Open(key)
		if err != nil {
			t.Fatalf("serial=%v: %v", serial, err)
		}
		if rep.Events() != machine.Steps {
			t.Fatalf("replay sees %d events, want %d", rep.Events(), machine.Steps)
		}
		if err := rep.Run(context.Background(), serial, warm...); err != nil {
			t.Fatalf("serial=%v: %v", serial, err)
		}
		rep.Close()
		for i := range live {
			lr, wr := live[i].Result(), warm[i].Result()
			if !reflect.DeepEqual(lr, wr) {
				t.Errorf("serial=%v cell %d (%v): cached result differs\nlive: %+v\nwarm: %+v",
					serial, i, lr.Model, lr, wr)
			}
		}
	}
}

// TestStoreMissCorruptSkew exercises the three degraded-read outcomes:
// a missing file is ErrMiss, damage is a descriptive (non-miss) error,
// and a file whose embedded fingerprint disagrees with the key is
// rejected even though its CRCs are intact.
func TestStoreMissCorruptSkew(t *testing.T) {
	dir := t.TempDir()
	store, err := tracestore.Open(iofault.OS(), dir)
	if err != nil {
		t.Fatal(err)
	}
	keyA := tracestore.Key{Bench: "a", ProgramCRC: 1, Annotation: 2, Predictors: "profile", Lanes: 1}
	keyB := tracestore.Key{Bench: "b", ProgramCRC: 3, Annotation: 4, Predictors: "profile", Lanes: 1}

	if _, err := store.Open(keyA); !errors.Is(err, tracestore.ErrMiss) {
		t.Fatalf("missing entry: %v, want ErrMiss", err)
	}

	// Populate keyA with a small synthetic stream.
	pop, err := store.BeginPopulate(keyA, nil)
	if err != nil {
		t.Fatal(err)
	}
	sink := pop.Sink()
	if err := sink(limits.ChunkView(0, []uint32{9, 9}, []uint32{1, 2}, []uint32{0, 0})); err != nil {
		t.Fatal(err)
	}
	if err := sink(nil); err != nil {
		t.Fatal(err)
	}
	if err := pop.Commit(); err != nil {
		t.Fatal(err)
	}
	rep, err := store.Open(keyA)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Events() != 2 {
		t.Fatalf("got %d events, want 2", rep.Events())
	}
	rep.Close()

	// A CRC-valid file stored under the wrong key is fingerprint skew,
	// not a hit and not a miss.
	data, err := os.ReadFile(store.Path(keyA))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(store.Path(keyB), data, 0o666); err != nil {
		t.Fatal(err)
	}
	_, err = store.Open(keyB)
	if err == nil || errors.Is(err, tracestore.ErrMiss) {
		t.Fatalf("fingerprint skew: %v, want a non-miss error", err)
	}
	if !strings.Contains(err.Error(), "fingerprint") {
		t.Errorf("skew error does not say so: %v", err)
	}

	// Damage: flip one byte mid-file.
	mut := append([]byte(nil), data...)
	mut[len(mut)/2] ^= 0x20
	if err := os.WriteFile(store.Path(keyA), mut, 0o666); err != nil {
		t.Fatal(err)
	}
	_, err = store.Open(keyA)
	if err == nil || errors.Is(err, tracestore.ErrMiss) {
		t.Fatalf("corrupt entry: %v, want a non-miss error", err)
	}
	if !errors.Is(err, trace.ErrBadTrace) {
		t.Errorf("corrupt entry error does not wrap ErrBadTrace: %v", err)
	}
}

// TestPopulateRequiresTerminator: a replay that never completed its
// stream (failure, stall, crash of the producer) must not commit.
func TestPopulateRequiresTerminator(t *testing.T) {
	dir := t.TempDir()
	store, err := tracestore.Open(iofault.OS(), dir)
	if err != nil {
		t.Fatal(err)
	}
	key := tracestore.Key{Bench: "partial", ProgramCRC: 1, Lanes: 1}
	pop, err := store.BeginPopulate(key, nil)
	if err != nil {
		t.Fatal(err)
	}
	sink := pop.Sink()
	if err := sink(limits.ChunkView(0, []uint32{1}, []uint32{1}, []uint32{1})); err != nil {
		t.Fatal(err)
	}
	if err := pop.Commit(); err == nil {
		t.Fatal("Commit without the end-of-stream terminator succeeded")
	}
	if _, err := store.Open(key); !errors.Is(err, tracestore.ErrMiss) {
		t.Fatalf("refused commit still published a file: %v", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".tmp") {
			t.Errorf("refused commit left temp file %s", e.Name())
		}
	}
}

// TestCrashConsistency drives the populate protocol over the simulated
// crashing filesystem: a crash before Commit leaves no readable entry
// (at worst a stray temp), and a committed entry survives the crash
// byte-for-byte.
func TestCrashConsistency(t *testing.T) {
	key := tracestore.Key{Bench: "crash", ProgramCRC: 7, Lanes: 1}
	frame := func() *limits.Chunk {
		return limits.ChunkView(0, []uint32{4, 5, 6}, []uint32{1, 2, 3}, []uint32{0, 1, 0})
	}

	// Crash mid-populate: nothing visible afterwards.
	sim := iofault.NewSim()
	store, err := tracestore.Open(sim, "/cache")
	if err != nil {
		t.Fatal(err)
	}
	pop, err := store.BeginPopulate(key, nil)
	if err != nil {
		t.Fatal(err)
	}
	sink := pop.Sink()
	if err := sink(frame()); err != nil {
		t.Fatal(err)
	}
	sim.Crash()
	after, err := tracestore.Open(sim, "/cache")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := after.Open(key); !errors.Is(err, tracestore.ErrMiss) {
		t.Fatalf("entry visible after mid-populate crash: %v", err)
	}

	// Commit then crash: the entry is durable and replays.
	sim = iofault.NewSim()
	store, err = tracestore.Open(sim, "/cache")
	if err != nil {
		t.Fatal(err)
	}
	pop, err = store.BeginPopulate(key, []byte("meta"))
	if err != nil {
		t.Fatal(err)
	}
	sink = pop.Sink()
	if err := sink(frame()); err != nil {
		t.Fatal(err)
	}
	if err := sink(nil); err != nil {
		t.Fatal(err)
	}
	if err := pop.Commit(); err != nil {
		t.Fatal(err)
	}
	sim.Crash()
	after, err = tracestore.Open(sim, "/cache")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := after.Open(key)
	if err != nil {
		t.Fatalf("committed entry lost to crash: %v", err)
	}
	if rep.Events() != 3 || string(rep.Meta()) != "meta" {
		t.Fatalf("committed entry skewed: %d events, meta %q", rep.Events(), rep.Meta())
	}
	rep.Close()
}

// TestReplayCancellation: a canceled context aborts a warm replay with
// the live pipeline's error shape.
func TestReplayCancellation(t *testing.T) {
	prog := buildProgram(t)
	machine, st := profileProgram(t, prog)
	store, err := tracestore.Open(iofault.OS(), t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	live := makeCells(st, len(machine.Mem))
	lanes := limits.AssignReplayLanes(live...)
	key := testKey(prog, st, lanes)
	pop, err := store.BeginPopulate(key, nil)
	if err != nil {
		t.Fatal(err)
	}
	err = limits.ReplayWith(context.Background(), limits.ReplayOptions{Sink: pop.Sink()}, machine.RunContext, live...)
	if err != nil {
		t.Fatal(err)
	}
	if err := pop.Commit(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := store.Open(key)
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	for _, serial := range []bool{true, false} {
		warm := makeCells(st, len(machine.Mem))
		if err := rep.Run(ctx, serial, warm...); !errors.Is(err, vm.ErrCanceled) {
			t.Errorf("serial=%v: canceled replay returned %v, want vm.ErrCanceled", serial, err)
		}
	}
}
