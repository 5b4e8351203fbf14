package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"time"

	"ilplimit/internal/harness"
)

// golden holds the suite's reference digest and exact counters,
// regenerated with -write-golden only when the program's results are
// meant to change.
//
//go:embed golden.json
var goldenJSON []byte

// goldenFile is the schema of golden.json.
type goldenFile struct {
	// SuiteDigest is suiteDigest of the scale-1 suite result.
	SuiteDigest string `json:"suite_digest"`
	// TraceInstructions is the suite's traced-instruction count per pass.
	TraceInstructions int64 `json:"trace_instructions"`
	// Counts are the exact counters of the traced runs by workload:
	// "suite-live", "suite-warm", and "daemon-jobs/seed=<n>" for the
	// default and held-out seeds.
	Counts map[string]map[string]int64 `json:"counts"`
	// JobDigests are jobDigest of daemon jobs 0..tracedJobs-1 by
	// "daemon-jobs/seed=<n>", for seeds 1..digestSeeds.
	JobDigests map[string]string `json:"job_digests"`
}

var golden = func() goldenFile {
	var g goldenFile
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		panic("perfbench: bad golden.json: " + err.Error())
	}
	return g
}()

// suiteDigest is the SHA-256 of the suite result's JSON with telemetry
// stripped: two passes agree on it exactly when they computed the same
// numbers.
func suiteDigest(s *harness.SuiteResult) (string, error) {
	c := *s
	c.Telemetry = nil
	c.Benchmarks = append([]harness.BenchResult(nil), s.Benchmarks...)
	for i := range c.Benchmarks {
		c.Benchmarks[i].Telemetry = nil
	}
	b, err := json.Marshal(&c)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// traceInstrs sums BenchResult.TraceInstructions over the suite.
func traceInstrs(s *harness.SuiteResult) int64 {
	var n int64
	for _, b := range s.Benchmarks {
		n += b.TraceInstructions
	}
	return n
}

// passResult is one suite pass as measured from outside.
type passResult struct {
	wall, cpu time.Duration
	instrs    int64
	ok        bool
	err       error
}

// suitePass runs harness.RunSuite once, untraced, and checks the result
// against the golden digest.
func suitePass(opt harness.Options) passResult {
	w0, c0 := time.Now(), cpuNow()
	res, err := harness.RunSuite(opt)
	p := passResult{wall: time.Since(w0), cpu: cpuNow() - c0, err: err}
	if err != nil {
		return p
	}
	p.instrs = traceInstrs(res)
	d, err := suiteDigest(res)
	if err != nil {
		p.err = err
		return p
	}
	p.ok = d == golden.SuiteDigest && p.instrs == golden.TraceInstructions
	if !p.ok {
		p.err = fmt.Errorf("suite digest %s (%d instrs) differs from golden %s (%d instrs)",
			d, p.instrs, golden.SuiteDigest, golden.TraceInstructions)
	}
	return p
}

// timedPasses runs suite passes back to back until the window closes
// and reports their end-to-end metrics.
func timedPasses(cfg config, opt harness.Options, r *report) {
	var ns, cpuNs, wallMs []float64
	rss := sampleRSS(os.Getpid())
	start := time.Now()
	for len(ns) == 0 || time.Since(start) < time.Duration(cfg.seconds)*time.Second {
		p := suitePass(opt)
		r.Attempted++
		if !p.ok {
			r.Failed++
			fmt.Fprintln(os.Stderr, "perfbench: pass failed:", p.err)
			if len(ns) == 0 && time.Since(start) > time.Duration(cfg.seconds)*time.Second {
				break
			}
			continue
		}
		ns = append(ns, float64(p.wall.Nanoseconds())/float64(p.instrs))
		cpuNs = append(cpuNs, float64(p.cpu.Nanoseconds())/float64(p.instrs))
		wallMs = append(wallMs, float64(p.wall.Nanoseconds())/1e6)
	}
	r.set("ns_per_instr", median(ns), "ns")
	r.set("cpu_ns_per_instr", median(cpuNs), "ns")
	r.set("latency_ms.p50", median(wallMs), "ms")
	rss.finish(r)
	fmt.Printf("passes %d over %.1fs\n", len(ns), time.Since(start).Seconds())
	fmt.Fprintf(os.Stderr, "perfbench: pass walls (ms): %.0f\n", wallMs)
}

// setupRuns is how many times a run repeats its set-up; setup_s is the
// median.
const setupRuns = 5

// runSuiteLive measures the live pipeline: source -> compile -> VM ->
// annotate -> ring -> steppers, no trace store.  Set-up is one cold pass
// in a fresh process, what a one-shot `ilplimit -table 3` pays; it is
// repeated in child processes and this process's own first pass.
func runSuiteLive(cfg config) (*report, error) {
	r := &report{Correct: true}
	var setups []float64
	for i := 0; i < setupRuns-1; i++ {
		s, err := coldChild()
		r.Attempted++
		if err != nil {
			r.Failed++
			fmt.Fprintln(os.Stderr, "perfbench: cold pass:", err)
			continue
		}
		setups = append(setups, s)
	}
	p := suitePass(harness.Options{})
	r.Attempted++
	if !p.ok {
		return nil, fmt.Errorf("cold pass: %v", p.err)
	}
	setups = append(setups, p.wall.Seconds())
	setSetup(r, setups)
	timedPasses(cfg, harness.Options{}, r)
	return r, nil
}

// runSuiteWarm measures the warm path: every benchmark replays its
// annotated trace from the store, so the VM, annotation and ring do no
// work.  Set-up is the store-populating pass plus commit, repeated into
// fresh stores; the timed passes read the last one.
func runSuiteWarm(cfg config) (*report, error) {
	r := &report{Correct: true}
	var setups []float64
	var store string
	for i := 0; i < setupRuns; i++ {
		if store != "" {
			os.RemoveAll(store)
		}
		store = filepath.Join(cfg.work, fmt.Sprintf("store-%d-%d", os.Getpid(), i))
		p := suitePass(harness.Options{TraceStore: store})
		r.Attempted++
		if !p.ok {
			return nil, fmt.Errorf("populating pass: %v", p.err)
		}
		setups = append(setups, p.wall.Seconds())
	}
	defer os.RemoveAll(store)
	setSetup(r, setups)
	timedPasses(cfg, harness.Options{TraceStore: store}, r)
	return r, nil
}

// coldPassResult is what a -cold-pass child prints.
type coldPassResult struct {
	WallS float64 `json:"wall_s"`
}

// runColdPass is the child side of suite-live's set-up: one pass in a
// process that has done nothing else.
func runColdPass() error {
	p := suitePass(harness.Options{})
	if !p.ok {
		return p.err
	}
	return json.NewEncoder(os.Stdout).Encode(coldPassResult{WallS: p.wall.Seconds()})
}

// coldChild runs one -cold-pass child and returns its pass wall time.
func coldChild() (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	var out bytes.Buffer
	cmd := exec.Command(exe, "-cold-pass")
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	if err := cmd.Run(); err != nil {
		return 0, fmt.Errorf("cold pass child: %w", err)
	}
	var res coldPassResult
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		return 0, fmt.Errorf("cold pass child output: %w", err)
	}
	return res.WallS, nil
}
