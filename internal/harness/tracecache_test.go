package harness

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"ilplimit/internal/bench"
	"ilplimit/internal/faultinject"
	"ilplimit/internal/telemetry"
)

// ilpcFiles lists the committed trace files in a store directory.
func ilpcFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".ilpc") {
			out = append(out, e.Name())
		}
	}
	return out
}

// TestTraceCacheBenchmarkEquivalence is the harness-level guarantee:
// live, cold (populating) and warm runs of the same benchmark produce
// deeply equal BenchResults, and the cache state transitions (populate,
// then hit) are observable in telemetry.
func TestTraceCacheBenchmarkEquivalence(t *testing.T) {
	b, err := bench.ByName("irsim")
	if err != nil {
		t.Fatal(err)
	}
	live, err := RunBenchmark(b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()

	coldReg := telemetry.NewRegistry()
	cold, err := RunBenchmark(b, Options{TraceStore: dir, Metrics: coldReg})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(ilpcFiles(t, dir)); n != 1 {
		t.Fatalf("cold run committed %d trace files, want 1", n)
	}
	if c := coldReg.Snapshot().Counters["bench.irsim.store.populates"]; c != 1 {
		t.Errorf("cold run recorded %d populates, want 1", c)
	}
	if c := coldReg.Snapshot().Counters["bench.irsim.store.misses"]; c != 1 {
		t.Errorf("cold run recorded %d misses, want 1", c)
	}

	warmReg := telemetry.NewRegistry()
	warm, err := RunBenchmark(b, Options{TraceStore: dir, Metrics: warmReg})
	if err != nil {
		t.Fatal(err)
	}
	if c := warmReg.Snapshot().Counters["bench.irsim.store.hits"]; c != 1 {
		t.Errorf("warm run recorded %d hits, want 1", c)
	}

	// Telemetry snapshots differ by construction (timers, live-vs-cached
	// stage sets); everything else must match exactly.
	cold.Telemetry, warm.Telemetry = nil, nil
	for name, r := range map[string]*BenchResult{"cold": cold, "warm": warm} {
		if !reflect.DeepEqual(live, r) {
			t.Errorf("%s result differs from live:\nlive: %+v\n%s: %+v", name, live, name, r)
		}
	}
}

// storeFiles maps each committed trace file of a store directory to its
// FileInfo, whose identity (os.SameFile) changes when a file is
// rewritten, even with the same bytes.
func storeFiles(t *testing.T, dir string) map[string]os.FileInfo {
	t.Helper()
	out := make(map[string]os.FileInfo)
	for _, name := range ilpcFiles(t, dir) {
		fi, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		out[name] = fi
	}
	return out
}

// TestTraceCacheStudySharing: every study that replays through a pass
// of its own commits its traces on a cold run, replays them on a warm
// one without adding or rewriting a file, and reports the rows of an
// uncached run both times.
func TestTraceCacheStudySharing(t *testing.T) {
	b, err := bench.ByName("eqntott")
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range studyCases {
		if !sc.ownPass {
			continue
		}
		t.Run(sc.name, func(t *testing.T) {
			live, err := sc.run(Options{Benchmarks: []bench.Benchmark{b}})
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			opt := Options{TraceStore: dir, Benchmarks: []bench.Benchmark{b}}
			cold, err := sc.run(opt)
			if err != nil {
				t.Fatal(err)
			}
			committed := storeFiles(t, dir)
			if len(committed) == 0 {
				t.Fatal("cold run committed no trace file")
			}
			warm, err := sc.run(opt)
			if err != nil {
				t.Fatal(err)
			}
			after := storeFiles(t, dir)
			if len(after) != len(committed) {
				t.Errorf("warm run left %d trace files, want %d", len(after), len(committed))
			}
			for name, fi := range committed {
				if fi2, ok := after[name]; !ok || !os.SameFile(fi, fi2) {
					t.Errorf("warm run rewrote %s", name)
				}
			}
			for name, rows := range map[string]any{"cold": cold, "warm": warm} {
				if !reflect.DeepEqual(rows, live) {
					t.Errorf("%s rows differ from uncached:\n%s: %+v\nuncached: %+v", name, name, rows, live)
				}
			}
		})
	}
}

// TestTraceCacheSuiteStudySharing: the suite and the studies keyed by
// the profile predictor share one entry per program.  An entry a study
// committed serves RunBenchmark warm, since every populate writes the
// sidecar, and an entry the suite committed serves a study warm, with
// the rows of an uncached run and without adding or rewriting a file.
func TestTraceCacheSuiteStudySharing(t *testing.T) {
	b, err := bench.ByName("eqntott")
	if err != nil {
		t.Fatal(err)
	}
	live, err := RunBenchmark(b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	opt := Options{TraceStore: dir, Benchmarks: []bench.Benchmark{b}}
	if _, err := RunWindowStudy(opt); err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	warm, err := RunBenchmark(b, Options{TraceStore: dir, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	for name, want := range map[string]int64{"hits": 1, "fallbacks": 0, "populates": 0} {
		if c := snap.Counters["bench.eqntott.store."+name]; c != want {
			t.Errorf("suite run on a study-populated store recorded %d %s, want %d", c, name, want)
		}
	}
	warm.Telemetry = nil
	if !reflect.DeepEqual(live, warm) {
		t.Errorf("suite run on a study-populated store differs from live:\nlive: %+v\nwarm: %+v", live, warm)
	}

	dir = t.TempDir()
	opt.TraceStore = dir
	if _, err := RunSuite(opt); err != nil {
		t.Fatal(err)
	}
	committed := storeFiles(t, dir)
	if len(committed) != 1 {
		t.Fatalf("suite committed %d trace files, want 1", len(committed))
	}
	// The prediction study keys three predictor lanes, and the guarded
	// study also traces the if-converted program.
	for _, sc := range studyCases {
		if !sc.ownPass || sc.name == "prediction" || sc.name == "guarded" {
			continue
		}
		live, err := sc.run(Options{Benchmarks: []bench.Benchmark{b}})
		if err != nil {
			t.Fatal(err)
		}
		reg := telemetry.NewRegistry()
		sopt := opt
		sopt.Metrics = reg
		rows, err := sc.run(sopt)
		if err != nil {
			t.Fatal(err)
		}
		if c := reg.Snapshot().Counters["bench.eqntott.store.hits"]; c != 1 {
			t.Errorf("%s study recorded %d store hits on the suite's entry, want 1", sc.name, c)
		}
		if !reflect.DeepEqual(rows, live) {
			t.Errorf("%s study on the suite's entry differs from uncached:\ncached: %+v\nuncached: %+v", sc.name, rows, live)
		}
		after := storeFiles(t, dir)
		for name, fi := range committed {
			if fi2, ok := after[name]; len(after) != 1 || !ok || !os.SameFile(fi, fi2) {
				t.Errorf("%s study added or rewrote a trace file: %v", sc.name, after)
			}
		}
	}
}

// TestTraceCacheFaultComposition pins the chaos interaction both ways:
// a run with an armed fault plan never populates the store (a mutated
// chunk must not be committed as a clean trace), and a warm hit under a
// fault plan still reproduces the live result — the cache changes
// cost, faults change cost, neither changes results.
func TestTraceCacheFaultComposition(t *testing.T) {
	b, err := bench.ByName("eqntott")
	if err != nil {
		t.Fatal(err)
	}
	live, err := RunBenchmark(b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// A plan whose triggers never fire (sequence numbers beyond any real
	// trace) still counts as armed: the gate is the plan, not its luck.
	dormant := func(string) *faultinject.Plan {
		return &faultinject.Plan{SlowConsumer: 0, SlowEvery: 1 << 40, SlowFor: 1}
	}
	dir := t.TempDir()
	faulted, err := RunBenchmark(b, Options{TraceStore: dir, Faults: dormant})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(ilpcFiles(t, dir)); n != 0 {
		t.Fatalf("faulted run committed %d trace files, want 0", n)
	}
	faulted.Telemetry = nil
	if !reflect.DeepEqual(live, faulted) {
		t.Errorf("faulted cold run differs from live")
	}

	// Populate cleanly, then hit the cache under the same fault plan.
	if _, err := RunBenchmark(b, Options{TraceStore: dir}); err != nil {
		t.Fatal(err)
	}
	warm, err := RunBenchmark(b, Options{TraceStore: dir, Faults: dormant})
	if err != nil {
		t.Fatal(err)
	}
	warm.Telemetry = nil
	if !reflect.DeepEqual(live, warm) {
		t.Errorf("warm run under faults differs from live")
	}
}

// TestTraceCacheCorruptFallsBackAndRepopulates: damaging the committed
// file must turn the next run into a live one (identical result) that
// rewrites a valid entry over the damage.
func TestTraceCacheCorruptFallsBackAndRepopulates(t *testing.T) {
	b, err := bench.ByName("eqntott")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cold, err := RunBenchmark(b, Options{TraceStore: dir})
	if err != nil {
		t.Fatal(err)
	}
	files := ilpcFiles(t, dir)
	if len(files) != 1 {
		t.Fatalf("got %d trace files, want 1", len(files))
	}
	path := filepath.Join(dir, files[0])
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/3] ^= 0x10
	if err := os.WriteFile(path, data, 0o666); err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	again, err := RunBenchmark(b, Options{TraceStore: dir, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if c := snap.Counters["bench.eqntott.store.fallbacks"]; c != 1 {
		t.Errorf("recorded %d fallbacks, want 1", c)
	}
	if c := snap.Counters["bench.eqntott.store.populates"]; c != 1 {
		t.Errorf("recorded %d re-populates, want 1", c)
	}
	again.Telemetry = nil
	if !reflect.DeepEqual(cold, again) {
		t.Errorf("fallback run differs from the original")
	}
	// The rewritten entry serves the next run warm.
	warm, err := RunBenchmark(b, Options{TraceStore: dir})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Errorf("re-populated warm run differs from the original")
	}
}

// TestTraceCacheJobEquivalence covers the service job path: cold
// write-through, then a warm hit, both equal to an uncached job, and an
// uploaded-trace job never touching the store.
func TestTraceCacheJobEquivalence(t *testing.T) {
	const src = `
int main() {
	int i, s;
	s = 0;
	for (i = 0; i < 200; i++) {
		if (i % 3 == 0) s += i;
		else s -= 1;
	}
	print(s);
	return 0;
}
`
	ctx := context.Background()
	live, err := AnalyzeJob(ctx, JobSpec{Source: src})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cold, err := AnalyzeJob(ctx, JobSpec{Source: src, TraceStore: dir})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(ilpcFiles(t, dir)); n != 1 {
		t.Fatalf("cold job committed %d trace files, want 1", n)
	}
	warm, err := AnalyzeJob(ctx, JobSpec{Source: src, TraceStore: dir})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(live, cold) || !reflect.DeepEqual(live, warm) {
		t.Errorf("job results differ: live %+v cold %+v warm %+v", live, cold, warm)
	}
}
