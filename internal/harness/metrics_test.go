package harness

import (
	"runtime"
	"strings"
	"testing"

	"ilplimit/internal/bench"
	"ilplimit/internal/telemetry"
)

// runWithMetrics runs one benchmark with a fresh registry and returns
// the filtered per-benchmark snapshot plus the raw suite-level one.
func runWithMetrics(t *testing.T, name string) (*telemetry.Snapshot, *telemetry.Snapshot) {
	t.Helper()
	b, err := bench.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	r, err := RunBenchmark(b, Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if r.Telemetry == nil {
		t.Fatal("BenchResult.Telemetry is nil despite Options.Metrics")
	}
	return r.Telemetry, reg.Snapshot()
}

// TestRunBenchmarkTelemetry checks the per-benchmark snapshot carries
// the full catalogue: stage timers, VM counters for both passes, and
// ring statistics, all with the "bench.<name>." prefix stripped.
func TestRunBenchmarkTelemetry(t *testing.T) {
	snap, raw := runWithMetrics(t, "irsim")

	for _, c := range []string{
		"stage.compile_ns", "stage.profile_ns", "stage.analyze_ns", "stage.wall_ns",
		"vm.profile.instructions", "vm.profile.run_ns", "vm.profile.runs",
		"vm.analysis.instructions", "vm.analysis.runs",
		"ring.chunks", "ring.events",
	} {
		if snap.Counters[c] <= 0 {
			t.Errorf("counter %s = %d, want > 0", c, snap.Counters[c])
		}
	}
	// The profile pass and the analysis replay step the same trace.
	if p, a := snap.Counters["vm.profile.instructions"], snap.Counters["vm.analysis.instructions"]; p != a {
		t.Errorf("profile executed %d instructions but analysis replayed %d", p, a)
	}
	// The replay ring carries the analysis trace plus the final HALT event.
	if ev, in := snap.Counters["ring.events"], snap.Counters["vm.analysis.instructions"]; ev < in {
		t.Errorf("ring.events = %d < vm.analysis.instructions = %d", ev, in)
	}
	// Wall covers every stage.
	var stages int64
	for _, c := range []string{"stage.compile_ns", "stage.profile_ns", "stage.analyze_ns"} {
		stages += snap.Counters[c]
	}
	if wall := snap.Counters["stage.wall_ns"]; wall < stages {
		t.Errorf("stage.wall_ns = %d < sum of stages %d", wall, stages)
	}
	// The raw registry scopes everything under the benchmark name.
	for name := range raw.Counters {
		if !strings.HasPrefix(name, "bench.irsim.") {
			t.Errorf("unscoped metric %q in suite registry", name)
		}
	}
	// Analyzer results for all seven models, unrolled and plain.
	var analyzer int
	for name := range snap.Counters {
		if strings.HasPrefix(name, "analyzer.") && strings.HasSuffix(name, ".cycles") {
			analyzer++
		}
	}
	if analyzer != 14 {
		t.Errorf("got %d analyzer cycle counters, want 14 (7 models × {unrolled, plain})", analyzer)
	}
}

// TestTelemetryDeterministicAcrossPaths pins snapshot determinism
// across scheduling: every scheduling-outcome metric (analyzer cycles
// and instructions, VM instruction counts, ring chunk and event counts,
// decode counters) is identical whether the ring's consumers share one
// core or spread across several.  Timing and stall metrics are
// excluded — they measure the machine, not the program.
func TestTelemetryDeterministicAcrossPaths(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	one, _ := runWithMetrics(t, "irsim")
	runtime.GOMAXPROCS(4)
	many, _ := runWithMetrics(t, "irsim")
	deterministic := func(name string) bool {
		return strings.HasPrefix(name, "analyzer.") ||
			strings.HasPrefix(name, "decode.") ||
			name == "ring.chunks" || name == "ring.events" ||
			strings.HasSuffix(name, ".instructions") ||
			strings.HasSuffix(name, ".runs")
	}
	checked := 0
	for name, v1 := range one.Counters {
		if !deterministic(name) {
			continue
		}
		checked++
		if vn, ok := many.Counters[name]; !ok || vn != v1 {
			t.Errorf("counter %s: GOMAXPROCS=1 %d, GOMAXPROCS=4 %d (ok=%v)", name, v1, vn, ok)
		}
	}
	if checked == 0 {
		t.Fatal("no deterministic counters recorded")
	}
}

// TestSuiteTelemetrySnapshot checks RunSuite attaches both the combined
// suite snapshot and the filtered per-benchmark snapshots.
func TestSuiteTelemetrySnapshot(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full suite")
	}
	reg := telemetry.NewRegistry()
	s, err := RunSuite(Options{Metrics: reg, Jobs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if s.Telemetry == nil {
		t.Fatal("SuiteResult.Telemetry is nil")
	}
	for _, b := range s.Benchmarks {
		if b.Telemetry == nil {
			t.Errorf("%s: BenchResult.Telemetry is nil", b.Name)
			continue
		}
		want := s.Telemetry.Counters["bench."+b.Name+".stage.wall_ns"]
		if got := b.Telemetry.Counters["stage.wall_ns"]; got == 0 || got != want {
			t.Errorf("%s: per-bench wall %d != suite-scoped wall %d", b.Name, got, want)
		}
	}
	report := MetricsReport(s.Telemetry)
	for _, want := range []string{"Pipeline stage timings", "irsim", "vm profile", "ring"} {
		if !strings.Contains(report, want) {
			t.Errorf("MetricsReport missing %q:\n%s", want, report)
		}
	}
}

// TestMetricsReportEmpty keeps the report total on degenerate input.
func TestMetricsReportEmpty(t *testing.T) {
	if got := MetricsReport(nil); !strings.Contains(got, "no metrics") {
		t.Errorf("nil-snapshot report = %q", got)
	}
	if got := MetricsReport(telemetry.NewRegistry().Snapshot()); !strings.Contains(got, "no pipeline metrics") {
		t.Errorf("empty-snapshot report = %q", got)
	}
}

// TestMetricsReportWarmAnalyze pins the warm replay's stage timer: a
// benchmark served from the trace store times its replay as
// stage.analyze, so the report's analyze cell is filled on a warm run
// as it is on a live one.
func TestMetricsReportWarmAnalyze(t *testing.T) {
	b, err := bench.ByName("eqntott")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := RunBenchmark(b, Options{TraceStore: dir}); err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	if _, err := RunBenchmark(b, Options{TraceStore: dir, Metrics: reg}); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if c := snap.Counters["bench.eqntott.store.hits"]; c != 1 {
		t.Fatalf("warm run recorded %d hits, want 1", c)
	}
	col := -1
	for i, c := range stageColumns {
		if c == "analyze" {
			col = i + 1
		}
	}
	report := MetricsReport(snap)
	for _, line := range strings.Split(report, "\n") {
		if f := strings.Fields(line); len(f) == len(stageColumns)+1 && f[0] == "eqntott" {
			if f[col] == "-" {
				t.Errorf("warm run's analyze cell is empty:\n%s", report)
			}
			return
		}
	}
	t.Errorf("report has no eqntott row:\n%s", report)
}
