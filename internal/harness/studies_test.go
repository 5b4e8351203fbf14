package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"reflect"
	"strings"
	"testing"

	"ilplimit/internal/bench"
	"ilplimit/internal/limits"
)

// The studies run the full suite, so the tests below share one execution
// each and assert structural and directional properties.  Each also pins
// its rendered output, which `ilplimit -study <name>` prints, by SHA-256
// digest.

// checkRender fails t unless out's SHA-256 digest is want.  Change a
// want only in a change meant to change the study's results.
func checkRender(t *testing.T, out, want string) {
	t.Helper()
	sum := sha256.Sum256([]byte(out))
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("rendered output digest %s, want %s:\n%s", got, want, out)
	}
}

func TestPredictionStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("suite-wide study")
	}
	s, err := RunPredictionStudy(Options{Scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Rows) != 10 {
		t.Fatalf("rows = %d, want 10", len(s.Rows))
	}
	for _, r := range s.Rows {
		if r.StaticRate < 50 || r.StaticRate > 100 || r.DynamicRate < 40 || r.DynamicRate > 100 {
			t.Errorf("%s: implausible rates %.1f / %.1f", r.Name, r.StaticRate, r.DynamicRate)
		}
		// BTFN can never beat the profile upper bound on SP by more than
		// noise; and all predictors agree where there are no branches.
		if r.Par["btfn"][limits.SP] > r.Par["profile"][limits.SP]*1.05 {
			t.Errorf("%s: BTFN (%.2f) beats the profile bound (%.2f)",
				r.Name, r.Par["btfn"][limits.SP], r.Par["profile"][limits.SP])
		}
		for _, which := range []string{"profile", "dynamic", "btfn"} {
			if r.Par[which][limits.SPCDMF] < r.Par[which][limits.SP]-1e-9 {
				t.Errorf("%s/%s: SP-CD-MF below SP", r.Name, which)
			}
		}
	}
	out := s.Render()
	if !strings.Contains(out, "dynamic%") || !strings.Contains(out, "awk") {
		t.Errorf("render malformed:\n%s", out)
	}
	checkRender(t, out, "f93d95376dac5b62ebb61739ec0ee1c79f8c001e574a5ab119b524641f5d907d")
}

func TestWindowStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("suite-wide study")
	}
	s, err := RunWindowStudy(Options{Scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Rows) != 10 {
		t.Fatalf("rows = %d, want 10", len(s.Rows))
	}
	for _, r := range s.Rows {
		// Parallelism grows (weakly) with window size; unbounded dominates.
		prev := 0.0
		for _, w := range WindowSizes[:len(WindowSizes)-1] {
			if r.Par[w] < prev-1e-9 {
				t.Errorf("%s: window %d (%.2f) below smaller window (%.2f)", r.Name, w, r.Par[w], prev)
			}
			prev = r.Par[w]
		}
		if r.Par[0] < prev-1e-9 {
			t.Errorf("%s: unbounded window below W=4096", r.Name)
		}
	}
	out := s.Render()
	if !strings.Contains(out, "unbounded") {
		t.Errorf("render malformed:\n%s", out)
	}
	checkRender(t, out, "2f976712eac39035cbef388fc0f4b42e3ad3db28bac6572dbbe20dfdea17852e")
}

func TestLatencyStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("suite-wide study")
	}
	s, err := RunLatencyStudy(Options{Scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range s.Rows {
		for _, m := range s.Models {
			// Realistic latencies can only consume parallelism.
			if r.RealPar[m] > r.UnitPar[m]*1.01 {
				t.Errorf("%s/%s: realistic latency increased parallelism (%.2f > %.2f)",
					r.Name, m, r.RealPar[m], r.UnitPar[m])
			}
		}
	}
	out := s.Render()
	if !strings.Contains(out, "(real)") {
		t.Errorf("render malformed:\n%s", out)
	}
	checkRender(t, out, "6a3a8c05231b2a248c33074bb71e065a14bd5f0757976bc749bac595e97b65be")
}

func TestScaleStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("suite-wide study at several scales")
	}
	s, err := RunScaleStudy(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Rows) != 10 {
		t.Fatalf("rows = %d, want 10", len(s.Rows))
	}
	byName := map[string]*ScaleRow{}
	for i := range s.Rows {
		r := &s.Rows[i]
		byName[r.Name] = r
		// Traces grow with scale.
		if r.Instructions[4] <= r.Instructions[1] {
			t.Errorf("%s: trace did not grow with scale: %v", r.Name, r.Instructions)
		}
	}
	// The data-independent numeric codes' ORACLE limit grows with trace
	// length (the unbounded-window effect the deviation note relies on).
	for _, name := range []string{"matrix300", "spice2g6"} {
		r := byName[name]
		if r.Par[4][limits.Oracle] <= r.Par[1][limits.Oracle] {
			t.Errorf("%s: ORACLE did not grow with trace length (%v)", name, r.Par)
		}
	}
	out := s.Render()
	if !strings.Contains(out, "x4") {
		t.Errorf("render malformed:\n%s", out)
	}
	checkRender(t, out, "83f1a69a2603df1018e0e18fc2506bf3a9c20036a9c73aa5ef052bc0a335ce40")
}

func TestQualityStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("suite-wide study")
	}
	s, err := RunQualityStudy(Options{Scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Rows) != 10 {
		t.Fatalf("rows = %d, want 10", len(s.Rows))
	}
	for _, r := range s.Rows {
		if r.OptInstrs >= r.PlainInstrs {
			t.Errorf("%s: optimizer removed nothing (%d -> %d)", r.Name, r.PlainInstrs, r.OptInstrs)
		}
		for _, m := range s.Models {
			if r.PlainPar[m] <= 0 || r.OptPar[m] <= 0 {
				t.Errorf("%s/%s: missing parallelism", r.Name, m)
			}
		}
	}
	out := s.Render()
	if !strings.Contains(out, "(-O)") {
		t.Errorf("render malformed:\n%s", out)
	}
	checkRender(t, out, "849b1a85b3547e6ac9dd923e3dfe994d753e2d82919a60651387f1de573b694d")
}

func TestWidthStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("suite-wide study")
	}
	s, err := RunWidthStudy(Options{Scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Rows) != 10 {
		t.Fatalf("rows = %d, want 10", len(s.Rows))
	}
	for i := range s.Rows {
		r := &s.Rows[i]
		// The width histogram must account for exactly the scheduled
		// instructions and exactly the schedule's cycles.
		var instrs, cycles int64
		for w, c := range r.Widths {
			instrs += w * c
			cycles += c
		}
		if instrs != r.Instructions {
			t.Errorf("%s: width-weighted instructions %d != %d", r.Name, instrs, r.Instructions)
		}
		if cycles != r.Cycles {
			t.Errorf("%s: width cycles %d != %d", r.Name, cycles, r.Cycles)
		}
		// Coverage is monotone in width and reaches 1 at the max width.
		ws := r.sortedWidths()
		prev := -1.0
		for _, w := range ws {
			c := r.InstrCoverage(w)
			if c < prev-1e-12 {
				t.Errorf("%s: coverage not monotone at width %d", r.Name, w)
			}
			prev = c
		}
		if c := r.InstrCoverage(r.MaxWidth()); c < 0.999999 {
			t.Errorf("%s: coverage at max width = %g, want 1", r.Name, c)
		}
	}
	out := s.Render()
	if !strings.Contains(out, "max width") {
		t.Errorf("render malformed:\n%s", out)
	}
	checkRender(t, out, "aa44f6f0b6c6161c738d2214953c666845ce08282c3806547f3087b794f93cf8")
}

func TestGuardedStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("suite-wide study")
	}
	s, err := RunGuardedStudy(Options{Scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Rows) != 10 {
		t.Fatalf("rows = %d, want 10", len(s.Rows))
	}
	converted := 0
	for _, r := range s.Rows {
		if r.BaseMeanDistance <= 0 || r.GuardedMeanDistance <= 0 {
			t.Errorf("%s: missing distances", r.Name)
		}
		if r.GuardedMeanDistance > r.BaseMeanDistance+0.5 {
			converted++
		}
		// If-conversion must never shorten the distance between
		// mispredictions (it removes branches, never adds them).
		if r.GuardedMeanDistance < r.BaseMeanDistance-0.5 {
			t.Errorf("%s: guarding shortened misprediction distance %.0f -> %.0f",
				r.Name, r.BaseMeanDistance, r.GuardedMeanDistance)
		}
	}
	if converted == 0 {
		t.Error("no benchmark gained misprediction distance; if-conversion had no effect anywhere")
	}
	out := s.Render()
	if !strings.Contains(out, "guard") {
		t.Errorf("render malformed:\n%s", out)
	}
	checkRender(t, out, "138fbe36feec96ecf8aa1e251de416abf39a60a0b414b79351f13568bd4efe6b")
}

// studyCases runs each study and returns its rows, a slice whose
// elements carry a Name field.  ownPass marks the studies that replay
// through a pass of their own; quality and scale run RunBenchmark.
var studyCases = []struct {
	name    string
	ownPass bool
	run     func(Options) (any, error)
}{
	{"prediction", true, func(o Options) (any, error) { s, err := RunPredictionStudy(o); return rowsOf(s, err) }},
	{"window", true, func(o Options) (any, error) { s, err := RunWindowStudy(o); return rowsOf(s, err) }},
	{"latency", true, func(o Options) (any, error) { s, err := RunLatencyStudy(o); return rowsOf(s, err) }},
	{"guarded", true, func(o Options) (any, error) { s, err := RunGuardedStudy(o); return rowsOf(s, err) }},
	{"width", true, func(o Options) (any, error) { s, err := RunWidthStudy(o); return rowsOf(s, err) }},
	{"quality", false, func(o Options) (any, error) { s, err := RunQualityStudy(o); return rowsOf(s, err) }},
	{"scale", false, func(o Options) (any, error) { s, err := RunScaleStudy(o); return rowsOf(s, err) }},
}

// rowsOf returns a study's Rows field.
func rowsOf(study any, err error) (any, error) {
	if err != nil {
		return nil, err
	}
	return reflect.ValueOf(study).Elem().FieldByName("Rows").Interface(), nil
}

// rowNames lists the Name of every row.
func rowNames(rows any) []string {
	v := reflect.ValueOf(rows)
	names := make([]string, v.Len())
	for i := range names {
		names[i] = v.Index(i).FieldByName("Name").String()
	}
	return names
}

// TestStudiesHonorOptions: every study measures exactly the benchmarks
// of Options.Benchmarks, and every study but the quality study (which
// runs both settings itself) measures the optimized code under
// Options.Optimize.
func TestStudiesHonorOptions(t *testing.T) {
	b, err := bench.ByName("irsim")
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range studyCases {
		t.Run(sc.name, func(t *testing.T) {
			opt := Options{Benchmarks: []bench.Benchmark{b}}
			plain, err := sc.run(opt)
			if err != nil {
				t.Fatal(err)
			}
			if names := rowNames(plain); !reflect.DeepEqual(names, []string{"irsim"}) {
				t.Fatalf("rows %v, want [irsim]", names)
			}
			if sc.name == "quality" {
				return
			}
			opt.Optimize = true
			optimized, err := sc.run(opt)
			if err != nil {
				t.Fatal(err)
			}
			if reflect.DeepEqual(plain, optimized) {
				t.Errorf("rows identical with and without Optimize: %+v", plain)
			}
		})
	}
}
