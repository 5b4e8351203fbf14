package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"ilplimit/internal/bench"
	"ilplimit/internal/harness"
	"ilplimit/internal/limits"
	"ilplimit/internal/telemetry"
)

// tracedJobs is the fixed job set of the daemon-jobs traced run: jobs
// 0..tracedJobs-1 of the seed, so its counters repeat exactly.
const tracedJobs = 400

func traceSuiteLive(cfg config) (*report, error) { return traceSuite(cfg, false) }
func traceSuiteWarm(cfg config) (*report, error) { return traceSuite(cfg, true) }

// suiteCounts runs one suite pass with telemetry on and returns its
// counters and result.
func suiteCounts(opt harness.Options) (map[string]int64, *harness.SuiteResult, error) {
	opt.Metrics = telemetry.NewRegistry()
	res, err := harness.RunSuite(opt)
	if err != nil {
		return nil, nil, err
	}
	counts := map[string]int64{"trace_instructions": traceInstrs(res)}
	countsFrom(res.Telemetry, counts)
	return counts, res, nil
}

// populate fills a fresh trace store under work with one suite pass.
func populate(work string) (string, error) {
	store := filepath.Join(work, fmt.Sprintf("store-%d", os.Getpid()))
	os.RemoveAll(store)
	if p := suitePass(harness.Options{TraceStore: store}); !p.ok {
		os.RemoveAll(store)
		return "", fmt.Errorf("populating pass: %v", p.err)
	}
	return store, nil
}

// traceSuite is the traced run of suite-live or suite-warm: one
// telemetry pass for the exact counters, then the layer ledger over the
// suite's ten programs, reconciled against untraced passes.
func traceSuite(cfg config, warm bool) (*report, error) {
	t0 := time.Now()
	r := &report{Correct: true}
	opt := harness.Options{}
	if warm {
		store, err := populate(cfg.work)
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(store)
		opt.TraceStore = store
	}
	counts, res, err := suiteCounts(opt)
	r.Attempted++
	if err != nil {
		return nil, err
	}
	if d, _ := suiteDigest(res); d != golden.SuiteDigest {
		r.Failed++
		fmt.Fprintln(os.Stderr, "perfbench: telemetry pass digest differs from golden")
	}
	want := make(map[string]map[string]float64)
	for _, b := range res.Benchmarks {
		m := make(map[string]float64)
		for md, v := range b.Par {
			m[analyzerKey(md, true)] = v
		}
		for md, v := range b.ParNoUnroll {
			m[analyzerKey(md, false)] = v
		}
		want[b.Name] = m
	}
	var inputs []input
	for _, b := range bench.All() {
		inputs = append(inputs, input{name: b.Name, source: func() string { return b.Source(1) },
			benchSrc: true, pipeUnrol: bothUnroll, want: want[b.Name]})
	}
	untraced := func() error {
		if p := suitePass(opt); !p.ok {
			return p.err
		}
		return nil
	}
	tr := newTracer()
	lr, err := runLedger(tr, cfg.work, inputs, 1, cfg.seconds, opt.TraceStore, untraced)
	r.Attempted++
	if err != nil {
		r.Failed++
		fmt.Fprintln(os.Stderr, "perfbench: ledger:", err)
		return r, nil
	}

	drift := checkCounts(counts, golden.Counts[cfg.workload], "golden.json")
	if lr.instrs != counts["trace_instructions"] {
		drift = append(drift, fmt.Sprintf("ledger saw %d traced instructions, the telemetry pass %d",
			lr.instrs, counts["trace_instructions"]))
	}
	if !warm && 2*lr.steps != counts["vm_steps"] {
		drift = append(drift, fmt.Sprintf("ledger saw %d VM steps per pass, telemetry %d over two passes",
			lr.steps, counts["vm_steps"]))
	}
	failOnDrift(r, drift)
	layerReport(r, lr, t0)
	setCounts(r, counts)
	extra := []string{
		fmt.Sprintf("bench.source_ms %.4g (suite workloads only)", lr.metrics["bench.source_ms"]),
		fmt.Sprintf("harness.unattributed_share %+.4f: the %s path's layer spans explain %.1f%% of its untraced CPU",
			lr.share, cfg.workload, 100*(1-lr.share)),
		"count.ring_stalls depends on goroutine timing and is not checked for exact repeat",
	}
	return r, traceArtifacts(cfg, tr, lr, r, extra)
}

// failOnDrift reports counter drift and marks the run incorrect.
func failOnDrift(r *report, drift []string) {
	for _, d := range drift {
		fmt.Fprintln(os.Stderr, "perfbench: counter drift:", d)
	}
	if len(drift) > 0 {
		r.Failed++
		r.Correct = false
	}
}

// jobPar parses a daemon job's matrix into parallelism by analyzerKey.
func jobPar(raw json.RawMessage) (map[string]float64, error) {
	var jr harness.JobResult
	if err := json.Unmarshal(raw, &jr); err != nil || len(jr.Rows) != 1 {
		return nil, fmt.Errorf("unexpected job result %s", raw)
	}
	out := make(map[string]float64)
	for name, v := range jr.Rows[0].Par {
		var md limits.Model
		if err := md.UnmarshalText([]byte(name)); err != nil {
			return nil, err
		}
		out[analyzerKey(md, true)] = v
	}
	return out, nil
}

// jobSetCounts takes jobs 0..tracedJobs-1 of the seed from next, one at
// a time, and right after each runs it in this process under the
// daemon's job configuration.  It returns the outcomes, the exact
// counters, and each job's in-process analyze wall time and traced
// instructions.
func jobSetCounts(seed int64, next func(i int64) jobOutcome) ([]jobOutcome, map[string]int64, []verified) {
	met := telemetry.NewRegistry()
	outs := make([]jobOutcome, tracedJobs)
	refs := make([]verified, tracedJobs)
	counts := make(map[string]int64)
	for i := range outs {
		outs[i] = next(int64(i))
		refs[i] = verifyJob(seed, outs[i], met)
		counts["trace_instructions"] += refs[i].instrs
	}
	countsFrom(met.Snapshot(), counts)
	return outs, counts, refs
}

// traceDaemonJobs is the traced run of daemon-jobs: the fixed job set
// goes through the daemon one job at a time, each job followed at once
// by harness.AnalyzeJob here, so the server overhead (the difference)
// compares the two under the same host conditions; then the job set
// goes through the layer ledger.
func traceDaemonJobs(cfg config) (*report, error) {
	t0 := time.Now()
	r := &report{Correct: true}
	d, _, err := startDaemon(cfg.daemon)
	if err != nil {
		return nil, err
	}
	cl := newClient(d.url)
	outs, counts, refs := jobSetCounts(cfg.seed, func(i int64) jobOutcome { return cl.submit(cfg.seed, i, "bench-0") })
	cl.close()
	if err := d.stop(); err != nil {
		return nil, fmt.Errorf("ilplimitd exit: %w", err)
	}
	checkJobDigest(r, cfg.seed, outs)
	var overhead, analyze []float64
	var inputs []input
	for i, o := range outs {
		r.Attempted++
		switch {
		case o.status == http.StatusTooManyRequests:
			counts["jobs_shed"]++
		case o.cached:
			counts["cache_hits"]++
		case o.err == nil:
			counts["jobs_ok"]++
		}
		err := o.err
		if err == nil {
			err = refs[i].err
		}
		var want map[string]float64
		if err == nil {
			want, err = jobPar(o.result)
		}
		if err != nil || o.cached {
			r.Failed++
			fmt.Fprintln(os.Stderr, "perfbench: job failed:", err)
			continue
		}
		overhead = append(overhead, float64((o.latency-refs[i].wall).Nanoseconds())/1e6)
		analyze = append(analyze, float64(refs[i].wall.Nanoseconds())/1e6)
		src := jobSource(cfg.seed, o.index)
		inputs = append(inputs, input{name: fmt.Sprintf("job %d", o.index), source: func() string { return src },
			pipeUnrol: []bool{true}, want: want})
	}
	if len(inputs) == 0 {
		return nil, errors.New("no job succeeded")
	}

	// The untraced reconciliation base: the same jobs through
	// harness.AnalyzeJob with telemetry off.
	untraced := func() error {
		for _, in := range inputs {
			if _, err := harness.AnalyzeJob(context.Background(), harness.JobSpec{Source: in.source()}); err != nil {
				return err
			}
		}
		return nil
	}
	tr := newTracer()
	lr, err := runLedger(tr, cfg.work, inputs, len(inputs), cfg.seconds, "", untraced)
	r.Attempted++
	if err != nil {
		r.Failed++
		fmt.Fprintln(os.Stderr, "perfbench: ledger:", err)
		return r, nil
	}
	var drift []string
	if want, ok := golden.Counts[jobsKey(cfg.seed)]; ok {
		drift = checkCounts(counts, want, "golden.json")
	}
	if lr.instrs != counts["trace_instructions"] || 2*lr.steps != counts["vm_steps"] ||
		lr.steps != counts["decode_events"] {
		drift = append(drift, fmt.Sprintf("ledger saw %d traced instructions and %d VM steps; telemetry %d, %d over two passes, %d decoded",
			lr.instrs, lr.steps, counts["trace_instructions"], counts["vm_steps"], counts["decode_events"]))
	}
	failOnDrift(r, drift)
	layerReport(r, lr, t0)
	setCounts(r, counts)
	ovTail, ovPct := tail(overhead)
	extra := []string{
		fmt.Sprintf("server.overhead_ms.p50 %.4g (round trip minus in-process harness.AnalyzeJob, %d jobs one at a time)",
			median(overhead), len(overhead)),
		fmt.Sprintf("server.overhead_ms.tail %.4g (p%g of %d)", ovTail, ovPct, len(overhead)),
		fmt.Sprintf("server.analyze_ms.p50 %.4g", median(analyze)),
		fmt.Sprintf("harness.unattributed_share %+.4f: the job path's layer spans explain %.1f%% of harness.AnalyzeJob's untraced CPU",
			lr.share, 100*(1-lr.share)),
		"count.ring_stalls depends on goroutine timing and is not checked for exact repeat",
	}
	return r, traceArtifacts(cfg, tr, lr, r, extra)
}

// writeGoldenFile records the suite digest, every workload's exact
// counters and the daemon-jobs job digests.  Run it only when the
// program's results are meant to change.
func writeGoldenFile(path string) error {
	g := goldenFile{Counts: make(map[string]map[string]int64), JobDigests: make(map[string]string)}
	counts, res, err := suiteCounts(harness.Options{})
	if err != nil {
		return err
	}
	if g.SuiteDigest, err = suiteDigest(res); err != nil {
		return err
	}
	g.TraceInstructions = traceInstrs(res)
	g.Counts["suite-live"] = counts
	golden = g // populate checks passes against the new digest
	work, err := os.MkdirTemp(filepath.Dir(path), ".golden-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	store, err := populate(work)
	if err != nil {
		return err
	}
	if g.Counts["suite-warm"], _, err = suiteCounts(harness.Options{TraceStore: store}); err != nil {
		return err
	}
	for seed := int64(1); seed <= digestSeeds; seed++ {
		outs := make([]jobOutcome, tracedJobs)
		for i := range outs {
			outs[i] = jobOutcome{index: int64(i)}
			res, err := harness.AnalyzeJob(context.Background(), harness.JobSpec{Source: jobSource(seed, int64(i))})
			if err != nil {
				return err
			}
			if outs[i].result, err = json.Marshal(res); err != nil {
				return err
			}
		}
		if g.JobDigests[jobsKey(seed)], err = jobDigest(outs); err != nil {
			return err
		}
		if seed != defaultSeed && seed != heldOutSeed {
			continue
		}
		_, c, refs := jobSetCounts(seed, func(i int64) jobOutcome { return outs[i] })
		for _, v := range refs {
			if v.err != nil {
				return v.err
			}
		}
		c["jobs_ok"] = tracedJobs
		g.Counts[jobsKey(seed)] = c
	}
	for _, c := range g.Counts {
		delete(c, "ring_stalls")
	}
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o666)
}
