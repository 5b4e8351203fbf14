package harness

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"ilplimit/internal/bench"
	"ilplimit/internal/limits"
	"ilplimit/internal/minic"
)

// runOne caches a single-benchmark pipeline run for the tests below.
func runOne(t *testing.T, name string) *BenchResult {
	t.Helper()
	b, err := bench.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	r, err := RunBenchmark(b, Options{Scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRunBenchmarkCCOM(t *testing.T) {
	r := runOne(t, "ccom")
	if r.Name != "ccom" || r.Numeric {
		t.Errorf("metadata wrong: %+v", r)
	}
	if r.PredictionRate < 50 || r.PredictionRate > 100 {
		t.Errorf("prediction rate %.2f out of range", r.PredictionRate)
	}
	if r.InstrsPerBranch < 2 || r.InstrsPerBranch > 100 {
		t.Errorf("instrs/branch %.1f out of range", r.InstrsPerBranch)
	}
	if r.TraceInstructions < 50_000 {
		t.Errorf("trace too small: %d", r.TraceInstructions)
	}
	// Model ordering invariants (provable dominance chains).
	ge := func(a, b limits.Model) {
		if r.Par[a] < r.Par[b]-1e-9 {
			t.Errorf("%s (%.2f) < %s (%.2f)", a, r.Par[a], b, r.Par[b])
		}
	}
	ge(limits.CD, limits.Base)
	ge(limits.CDMF, limits.CD)
	ge(limits.Oracle, limits.CDMF)
	ge(limits.SP, limits.Base)
	ge(limits.SPCD, limits.SP)
	ge(limits.SPCDMF, limits.SPCD)
	ge(limits.Oracle, limits.SPCDMF)
	// Same chains without unrolling.
	for _, m := range limits.AllModels() {
		if r.ParNoUnroll[m] <= 0 {
			t.Errorf("%s: no-unroll parallelism missing", m)
		}
	}
	if r.Segments == nil {
		t.Error("SP segments missing")
	}
	// The unroll-change percentages must be finite and consistent.
	for _, m := range limits.AllModels() {
		pct := r.UnrollChangePercent(m)
		if pct < -100 || pct > 1e7 {
			t.Errorf("%s: unroll change %.1f%% out of range", m, pct)
		}
	}
}

func TestReportsRender(t *testing.T) {
	r := runOne(t, "ccom")
	s := &SuiteResult{Benchmarks: []BenchResult{*r}, Models: limits.AllModels()}

	t1 := Table1()
	for _, want := range []string{"awk", "tomcatv", "FORTRAN", "mesh generation"} {
		if !strings.Contains(t1, want) {
			t.Errorf("Table1 missing %q", want)
		}
	}
	if !strings.Contains(s.Table2(), "ccom") {
		t.Error("Table2 missing benchmark row")
	}
	t3 := s.Table3()
	for _, want := range []string{"BASE", "ORACLE", "Harmonic Mean", "ccom"} {
		if !strings.Contains(t3, want) {
			t.Errorf("Table3 missing %q", want)
		}
	}
	if !strings.Contains(s.Table4(), "ccom") {
		t.Error("Table4 missing benchmark row")
	}
	if !strings.Contains(s.Figure4(), "CD-MF") || !strings.Contains(s.Figure5(), "SP-CD-MF") {
		t.Error("figures missing model bars")
	}
	f6 := s.Figure6()
	if !strings.Contains(f6, "<=100") || !strings.Contains(f6, "%") {
		t.Errorf("Figure6 malformed:\n%s", f6)
	}
	f7 := s.Figure7()
	if !strings.Contains(f7, "Distance") {
		t.Errorf("Figure7 malformed:\n%s", f7)
	}
	full := s.Report()
	for _, part := range []string{"Table 1", "Table 2", "Table 3", "Table 4",
		"Figure 4", "Figure 5", "Figure 6", "Figure 7"} {
		if !strings.Contains(full, part) {
			t.Errorf("Report missing %q", part)
		}
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Scale != 1 || o.MemWords != 1<<20 || len(o.Models) != limits.NumModels {
		t.Errorf("defaults wrong: %+v", o)
	}
	if o.Jobs != runtime.GOMAXPROCS(0) {
		t.Errorf("Jobs default = %d, want GOMAXPROCS = %d", o.Jobs, runtime.GOMAXPROCS(0))
	}
	if o.StepLimit != 1<<32 {
		t.Errorf("StepLimit default = %d, want 1<<32", o.StepLimit)
	}
	o = Options{Scale: 3, MemWords: 4096, Models: []limits.Model{limits.SP}}.withDefaults()
	if o.Scale != 3 || o.MemWords != 4096 || len(o.Models) != 1 {
		t.Errorf("explicit options clobbered: %+v", o)
	}
}

// RunBenchmark's ring replay and the single-goroutine inline loop
// (limits.SerialReplay) over the same trace must agree on every
// schedule figure the harness reports.
func TestRunBenchmarkSerialMatchesParallel(t *testing.T) {
	b, err := bench.ByName("irsim")
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Scale: 1}.withDefaults()
	par, err := RunBenchmark(b, opt)
	if err != nil {
		t.Fatal(err)
	}
	// The same compile, profile and predecode RunBenchmark's pass makes,
	// then the inline loop in place of the pass's ring replay.
	p, err := benchPass(b, opt, minic.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.release()
	if err := p.profile(); err != nil {
		t.Fatal(err)
	}
	sts, err := p.statics([]string{"profile"}, false)
	if err != nil {
		t.Fatal(err)
	}
	p.machine.Reset()
	unrolled := limits.NewGroup(sts[0], p.words, opt.Models, true)
	plain := limits.NewGroup(sts[0], p.words, opt.Models, false)
	all := append(append([]*limits.Analyzer(nil), unrolled.Analyzers...), plain.Analyzers...)
	if err := limits.SerialReplay(opt.ctx(), p.machine.RunContext, all...); err != nil {
		t.Fatal(err)
	}
	for _, r := range unrolled.Results() {
		if got := par.Par[r.Model]; got != r.Parallelism() {
			t.Errorf("unrolled %s: ring %v, serial %v", r.Model, got, r.Parallelism())
		}
		if r.Model == limits.SP && !reflect.DeepEqual(par.Segments, r.Segments) {
			t.Errorf("SP segments differ\nring:   %+v\nserial: %+v", par.Segments, r.Segments)
		}
	}
	for _, r := range plain.Results() {
		if got := par.ParNoUnroll[r.Model]; got != r.Parallelism() {
			t.Errorf("plain %s: ring %v, serial %v", r.Model, got, r.Parallelism())
		}
	}
}

// Progress writers are shared across RunSuite's concurrent jobs; the
// wrapper must serialize them (the race detector enforces the rest) and
// withDefaults must not stack wrappers on re-entry.
func TestProgressWriterSynchronized(t *testing.T) {
	var buf strings.Builder
	o := Options{Progress: &buf}.withDefaults()
	sw, ok := o.Progress.(*syncWriter)
	if !ok {
		t.Fatalf("Progress not wrapped: %T", o.Progress)
	}
	if o2 := o.withDefaults(); o2.Progress != sw {
		t.Errorf("withDefaults re-wrapped the progress writer")
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				fmt.Fprintf(o.Progress, "[job %d] line %d\n", i, j)
			}
		}(i)
	}
	wg.Wait()
	if got := strings.Count(buf.String(), "\n"); got != 800 {
		t.Errorf("progress lines = %d, want 800", got)
	}
}

func TestBucketing(t *testing.T) {
	cases := map[int64]int{1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4, 1024: 10}
	for d, want := range cases {
		if got := bucketOf(d); got != want {
			t.Errorf("bucketOf(%d) = %d, want %d", d, got, want)
		}
	}
	if bucketLabel(0) != "1" {
		t.Errorf("bucketLabel(0) = %q", bucketLabel(0))
	}
	if bucketLabel(3) != "5-8" {
		t.Errorf("bucketLabel(3) = %q", bucketLabel(3))
	}
}

// The non-numeric selector must mirror the suite's split.
func TestSuiteSplit(t *testing.T) {
	s := &SuiteResult{
		Benchmarks: []BenchResult{
			{Name: "a"}, {Name: "b", Numeric: true}, {Name: "c"},
		},
	}
	nn := s.NonNumeric()
	if len(nn) != 2 || nn[0].Name != "a" || nn[1].Name != "c" {
		t.Errorf("NonNumeric = %+v", nn)
	}
}
