package harness

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"ilplimit/internal/asm"
	"ilplimit/internal/bench"
	"ilplimit/internal/minic"
	"ilplimit/internal/telemetry"
	"ilplimit/internal/trace"
	"ilplimit/internal/vm"
)

// jobSource is a small deterministic program for job tests.
const jobSource = `
int main() {
	int i, s;
	s = 0;
	for (i = 0; i < 64; i++) {
		if (i - (i / 3) * 3 == 0) s += i;
		else s -= 1;
	}
	print(s);
	return 0;
}
`

// recordTrace executes a mini-C program once and returns its trace file
// bytes.
func recordTrace(t *testing.T, source string) []byte {
	t.Helper()
	asmText, err := minic.Compile(source)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := asm.Assemble(asmText)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	machine := vm.New(prog)
	machine.StepLimit = 1 << 32
	if err := machine.Run(func(ev vm.Event) {
		if err := w.Write(ev); err != nil {
			t.Fatal(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestAnalyzeJobSourceTraceEquivalence verifies the service job path:
// an executed program and a replayed recording of the same program must
// produce identical matrix rows, for every input form.
func TestAnalyzeJobSourceTraceEquivalence(t *testing.T) {
	fromSource, err := AnalyzeJob(context.Background(), JobSpec{Source: jobSource})
	if err != nil {
		t.Fatalf("source job: %v", err)
	}
	if len(fromSource.Rows) != 1 || fromSource.Rows[0].Name != "program" {
		t.Fatalf("source job rows = %+v", fromSource.Rows)
	}
	if len(fromSource.Rows[0].Par) != 7 {
		t.Errorf("source job has %d models, want 7", len(fromSource.Rows[0].Par))
	}
	if p := fromSource.Rows[0].Par["ORACLE"]; p <= 1 {
		t.Errorf("ORACLE parallelism %v, want > 1", p)
	}

	asmText, err := minic.Compile(jobSource)
	if err != nil {
		t.Fatal(err)
	}
	fromAsm, err := AnalyzeJob(context.Background(), JobSpec{Asm: asmText})
	if err != nil {
		t.Fatalf("asm job: %v", err)
	}

	fromTrace, err := AnalyzeJob(context.Background(), JobSpec{
		Asm:   asmText,
		Trace: recordTrace(t, jobSource),
	})
	if err != nil {
		t.Fatalf("trace job: %v", err)
	}

	for model, want := range fromSource.Rows[0].Par {
		if got := fromAsm.Rows[0].Par[model]; got != want {
			t.Errorf("asm job %s = %v, source job = %v", model, got, want)
		}
		if got := fromTrace.Rows[0].Par[model]; got != want {
			t.Errorf("trace job %s = %v, source job = %v", model, got, want)
		}
	}
}

// TestAnalyzeJobRejectsBadInput covers the ErrBadJob surface: no
// program, both program forms, compile errors, and a corrupt trace.
func TestAnalyzeJobRejectsBadInput(t *testing.T) {
	cases := map[string]JobSpec{
		"empty":      {},
		"both":       {Source: jobSource, Asm: "nop"},
		"bad-source": {Source: "int main( {"},
		"bad-asm":    {Asm: "frobnicate r1, r2"},
		"bad-trace":  {Source: jobSource, Trace: []byte("not a trace")},
	}
	for name, spec := range cases {
		if _, err := AnalyzeJob(context.Background(), spec); !errors.Is(err, ErrBadJob) {
			t.Errorf("%s: err = %v, want ErrBadJob", name, err)
		}
	}
}

// TestAnalyzeJobTruncatedTrace verifies a trace cut mid-stream (the
// upload a client abandoned) is rejected as a client error, not served
// as a silently-shorter program.
func TestAnalyzeJobTruncatedTrace(t *testing.T) {
	data := recordTrace(t, jobSource)
	_, err := AnalyzeJob(context.Background(), JobSpec{Source: jobSource, Trace: data[:len(data)/2]})
	if !errors.Is(err, ErrBadJob) {
		t.Errorf("truncated trace: err = %v, want ErrBadJob", err)
	}
}

// TestAnalyzeJobCanceled verifies a canceled context aborts both the
// execution and the trace-replay paths with vm.ErrCanceled.
func TestAnalyzeJobCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := AnalyzeJob(ctx, JobSpec{Source: jobSource}); !errors.Is(err, vm.ErrCanceled) {
		t.Errorf("canceled source job: err = %v, want vm.ErrCanceled", err)
	}
	data := recordTrace(t, jobSource)
	if _, err := AnalyzeJob(ctx, JobSpec{Source: jobSource, Trace: data}); !errors.Is(err, vm.ErrCanceled) {
		t.Errorf("canceled trace job: err = %v, want vm.ErrCanceled", err)
	}
}

// TestAnalyzeJobStageTimers checks that a job records the pass's stage
// timers, compile and optimize included, into JobSpec.Metrics.
func TestAnalyzeJobStageTimers(t *testing.T) {
	reg := telemetry.NewRegistry()
	if _, err := AnalyzeJob(context.Background(), JobSpec{Source: jobSource, Optimize: true, Metrics: reg}); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	for _, stage := range []string{"compile", "optimize", "profile", "predecode", "analyze"} {
		if _, ok := snap.Counters["stage."+stage+"_ns"]; !ok {
			t.Errorf("job recorded no stage.%s_ns", stage)
		}
	}
}

// TestSuiteMatrix verifies the suite-to-matrix flattening the daemon
// serves for suite jobs.
func TestSuiteMatrix(t *testing.T) {
	b, err := bench.ByName("irsim")
	if err != nil {
		t.Fatal(err)
	}
	suite, err := RunSuite(Options{Benchmarks: []bench.Benchmark{b}})
	if err != nil {
		t.Fatal(err)
	}
	m := SuiteMatrix(suite)
	if len(m.Rows) != 1 || m.Rows[0].Name != "irsim" {
		t.Fatalf("rows = %+v", m.Rows)
	}
	if len(m.Rows[0].Par) != 7 {
		t.Errorf("row has %d models, want 7", len(m.Rows[0].Par))
	}
}
