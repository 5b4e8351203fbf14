package harness

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"ilplimit/internal/asm"
	"ilplimit/internal/bench"
	"ilplimit/internal/iofault"
	"ilplimit/internal/limits"
	"ilplimit/internal/minic"
	"ilplimit/internal/tracestore"
	"ilplimit/internal/vm"
)

// panicOracle is the mirror's placeholder predictor: a stored replay
// reads every misprediction from the trace's lane bits.
type panicOracle struct{}

func (panicOracle) Mispredicted(vm.Event) bool { panic("mirror replay queried the predictor") }

// TestTraceCacheWarmMirrorKey pins the store entry an outside reader
// opens by its own recipe, as perfbench's suite-warm mirror does: it
// compiles the benchmark itself, keys the entry from a Static with a
// placeholder predictor and the unrolled-then-plain groups of all seven
// models, and decodes only TraceInstructions and Steps from the
// sidecar.  A change to the key, the lane assignment or the sidecar
// fails here, not only in a traced benchmark run.
func TestTraceCacheWarmMirrorKey(t *testing.T) {
	b, err := bench.ByName("irsim")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	res, err := RunBenchmark(b, Options{TraceStore: dir})
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
	st, err := limits.NewStatic(prog, panicOracle{})
	if err != nil {
		t.Fatal(err)
	}
	words := vm.MemWords(prog, DefaultMemWords)
	unrolled := limits.NewGroup(st, words, limits.AllModels(), true)
	plain := limits.NewGroup(st, words, limits.AllModels(), false)
	analyzers := append(append([]*limits.Analyzer(nil), unrolled.Analyzers...), plain.Analyzers...)

	store, err := tracestore.Open(iofault.OS(), dir)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := store.Open(tracestore.Key{
		Bench:      b.Name,
		ProgramCRC: tracestore.ProgramCRC(prog),
		Annotation: st.AnnotationFingerprint(),
		Predictors: "profile",
		Lanes:      limits.AssignReplayLanes(analyzers...),
	})
	if err != nil {
		t.Fatalf("mirror key missed the entry RunBenchmark stored: %v", err)
	}
	defer rep.Close()

	var sm struct{ TraceInstructions, Steps int64 }
	if err := json.Unmarshal(rep.Meta(), &sm); err != nil {
		t.Fatalf("sidecar %s: %v", rep.Meta(), err)
	}
	if sm.TraceInstructions != res.TraceInstructions {
		t.Errorf("sidecar TraceInstructions = %d, result has %d", sm.TraceInstructions, res.TraceInstructions)
	}
	if sm.Steps < sm.TraceInstructions {
		t.Errorf("sidecar Steps = %d, fewer than its %d traced instructions", sm.Steps, sm.TraceInstructions)
	}

	if err := rep.Run(context.Background(), false, analyzers...); err != nil {
		t.Fatal(err)
	}
	if got := groupPar(unrolled); !reflect.DeepEqual(got, res.Par) {
		t.Errorf("mirror replay Par = %v, want %v", got, res.Par)
	}
	if got := groupPar(plain); !reflect.DeepEqual(got, res.ParNoUnroll) {
		t.Errorf("mirror replay ParNoUnroll = %v, want %v", got, res.ParNoUnroll)
	}
}
