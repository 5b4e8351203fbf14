package ilplimit_test

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"ilplimit"
	"ilplimit/internal/asm"
	"ilplimit/internal/limits"
	"ilplimit/internal/minic"
	"ilplimit/internal/predict"
	"ilplimit/internal/vm"
)

// guardedProgram has two conditional assignments that if-conversion
// turns into guarded moves.
const guardedProgram = `
int data[64];
int main() {
	int i, s, v, m;
	s = 0;
	m = 0;
	for (i = 0; i < 64; i++) data[i] = (i * 29) & 63;
	for (i = 0; i < 64; i++) {
		v = data[i];
		if (v > 31) s = s + v;
		if (v > m) m = v; else m = m - 1;
	}
	print(s + m);
	return 0;
}
`

// directReplay measures src without the harness: compile, profile on
// the VM, pre-decode with the profile predictor and step one group of
// every model through SerialReplay.  It shares no code with Measure
// above the limits package, so the two agreeing checks the pass that
// Measure runs.
func directReplay(t *testing.T, src string, mopt minic.Options, unroll bool) []limits.Result {
	t.Helper()
	asmText, err := minic.CompileOpts(src, mopt)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := asm.Assemble(asmText)
	if err != nil {
		t.Fatal(err)
	}
	machine := vm.NewSized(prog, 1<<20)
	defer machine.Release()
	machine.StepLimit = 1 << 32
	prof := predict.NewProfile(prog)
	if err := machine.Run(prof.Record); err != nil {
		t.Fatal(err)
	}
	st, err := limits.NewStatic(prog, prof.Predictor())
	if err != nil {
		t.Fatal(err)
	}
	machine.Reset()
	group := limits.NewGroup(st, len(machine.Mem), limits.AllModels(), unroll)
	if err := limits.SerialReplay(context.Background(), machine.RunContext, group.Analyzers...); err != nil {
		t.Fatal(err)
	}
	return group.Results()
}

// TestMeasureMatchesDirectReplay checks Measure's seven results against
// a direct replay, with and without unrolling, for the plain and the
// if-converted compilation of the same program.
func TestMeasureMatchesDirectReplay(t *testing.T) {
	guarded, err := minic.CompileOpts(guardedProgram, minic.Options{IfConvert: true})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(guarded, "cmov") {
		t.Fatal("if-conversion left the test program without guarded moves")
	}
	byIfConvert := map[bool][]limits.Result{}
	for _, ifConvert := range []bool{false, true} {
		for _, unroll := range []bool{true, false} {
			got, err := ilplimit.Measure(guardedProgram, ilplimit.MeasureOptions{IfConvert: ifConvert, DisableUnrolling: !unroll})
			if err != nil {
				t.Fatal(err)
			}
			want := directReplay(t, guardedProgram, minic.Options{IfConvert: ifConvert}, unroll)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("IfConvert=%v unroll=%v:\nMeasure       %+v\ndirect replay %+v", ifConvert, unroll, got, want)
			}
			byIfConvert[ifConvert] = append(byIfConvert[ifConvert], got...)
		}
	}
	if reflect.DeepEqual(byIfConvert[false], byIfConvert[true]) {
		t.Error("if-conversion changed no result, so Measure's IfConvert went unchecked")
	}
}

// TestMeasureErrors checks that Measure's run errors still match the
// sentinels callers test for.
func TestMeasureErrors(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ilplimit.Measure(facadeProgram, ilplimit.MeasureOptions{Context: ctx}); !errors.Is(err, ilplimit.ErrCanceled) {
		t.Errorf("canceled Measure: err = %v, want ErrCanceled", err)
	}
	if _, err := ilplimit.Measure(facadeProgram, ilplimit.MeasureOptions{StepLimit: 100}); !errors.Is(err, vm.ErrStepLimit) {
		t.Errorf("step-limited Measure: err = %v, want vm.ErrStepLimit", err)
	}
}
