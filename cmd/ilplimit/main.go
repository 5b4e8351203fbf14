// Command ilplimit reproduces the experiments of Lam & Wilson, "Limits of
// Control Flow on Parallelism" (ISCA 1992): it compiles the benchmark
// suite, simulates the traces under the seven abstract machine models, and
// prints the paper's tables and figures.
//
// Usage:
//
//	ilplimit                         # everything: tables 1-4, figures 4-7
//	ilplimit -table 3                # one table
//	ilplimit -figure 6               # one figure
//	ilplimit -bench espresso         # restrict the suite to one benchmark
//	ilplimit -bench awk,ccom,latex   # or to a comma-separated list
//	ilplimit -scale 4                # larger workloads
//	ilplimit -timeout 2m             # abort cleanly if the run exceeds a deadline
//	ilplimit -metrics                # pipeline telemetry report after the run
//	ilplimit -debug-addr 127.0.0.1:6060  # live expvar + pprof during the run
//	ilplimit -resume state/          # crash-safe run: journal results, skip completed ones
//	ilplimit -retries 2              # re-run transiently-failed benchmarks
//	ilplimit -watchdog 30s           # detach analyzers making no chunk progress
//	ilplimit -coordinator :7070      # distribute the suite across ilplimitw workers
//	ilplimit -chaos 7 -resume state/ # seeded fault injection: pipeline + disk faults
//	ilplimit -v                      # progress on stderr
//
// When some benchmarks fail and others succeed, the surviving results are
// still rendered, a per-benchmark failure summary goes to stderr, and the
// process exits non-zero.
//
// -resume names a directory holding the run journal: every completed
// benchmark is checkpointed there (checksummed and fsync'd), and a rerun
// after a crash — even kill -9 — skips the journaled benchmarks and
// reproduces the uninterrupted run's output byte for byte.  The journal
// is bound to the result-affecting configuration (scale, models,
// benchmark list, step limit); resuming with a different configuration
// is refused.  -resume cannot be combined with -study, whose passes vary
// the configuration per run.
//
// -coordinator turns the run into the coordinator of a distributed
// fabric: instead of analyzing benchmarks in-process, it serves the
// suite's cells over HTTP to ilplimitw worker processes and merges
// their streamed-back results.  The rendered output — and the journal,
// when -resume is also given — is byte-identical to a single-process
// run of the same configuration (telemetry timings excepted).  See
// DESIGN.md §13.
//
// With -resume, the coordinator additionally persists every lease grant
// and admitted completion to a recovery journal (coordinator.ilpj) in
// the resume directory, so a coordinator killed mid-run — even kill -9
// — and restarted with the same -coordinator -resume flags reconstructs
// its queue and lease table and finishes the run byte-identical to an
// uninterrupted one.  Workers retry through the outage with jittered
// backoff (see ilplimitw -rejoin) instead of failing their cells.
//
// -chaos arms a seeded fault schedule for resilience soaks: each
// benchmark may get a deterministic VM trap, analyzer panic, or slow
// consumer, and the -resume journal's filesystem injects a small budget
// of write faults (EIO, ENOSPC, short writes).  All scheduled faults
// are transient: the run converges to byte-identical output through the
// retry and salvage machinery it is exercising.  Implies -retries 2
// when -retries is unset; the schedule and a fired-fault summary go to
// stderr.  See DESIGN.md §14 and `make soak-chaos`.
package main

import (
	"context"
	"encoding/json"
	"errors"
	_ "expvar" // registers /debug/vars on the -debug-addr server
	"flag"
	"fmt"
	"io"
	"net"
	_ "net/http/pprof" // registers /debug/pprof on the -debug-addr server
	"os"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"

	"ilplimit/internal/bench"
	"ilplimit/internal/fabric"
	"ilplimit/internal/faultinject"
	"ilplimit/internal/harness"
	"ilplimit/internal/httpserve"
	"ilplimit/internal/iofault"
	"ilplimit/internal/journal"
	"ilplimit/internal/limits"
	"ilplimit/internal/telemetry"
)

// jnl is the run journal when -resume is active, package-level so fail()
// can record why a run ended before exiting: an interrupted journal then
// explains itself when inspected or resumed.
var jnl *journal.Journal

// shutdownFabric tears down the -coordinator fabric (finish, drain
// workers, close the listener); a no-op otherwise.  Package-level and
// idempotent because the degraded-suite path and fail() exit through
// os.Exit, which skips defers — every exit path calls it explicitly.
var shutdownFabric = func() {}

// chaos is the -chaos fault schedule, package-level so every exit path
// (including fail) can report which faults actually fired.
var chaos *faultinject.Chaos

// reportChaos prints the fired-fault summary on stderr once per run.
func reportChaos() {
	if chaos != nil {
		fmt.Fprint(os.Stderr, "ilplimit: "+chaos.FiredSummary())
		chaos = nil
	}
}

func main() {
	var (
		table     = flag.Int("table", 0, "print only this table (1-4)")
		figure    = flag.Int("figure", 0, "print only this figure (4-7)")
		study     = flag.String("study", "", "run an ablation study: "+studyNames())
		name      = flag.String("bench", "", "run only this benchmark (name or unique prefix)")
		scale     = flag.Int("scale", 1, "workload scale factor (>= 1)")
		optimize  = flag.Bool("opt", false, "run the post-codegen optimizer before analysis")
		jsonOut   = flag.Bool("json", false, "emit machine-readable JSON instead of tables")
		timeout   = flag.Duration("timeout", 0, "abort the whole run after this duration (e.g. 30s; 0 = no limit)")
		metrics   = flag.Bool("metrics", false, "print a pipeline telemetry report (stage timings, VM throughput, ring stats) after the run")
		debug     = flag.String("debug-addr", "", "serve expvar and net/http/pprof on this address (e.g. 127.0.0.1:6060) for the lifetime of the run")
		resume    = flag.String("resume", "", "journal completed benchmarks in this directory and skip ones already journaled by an interrupted run")
		retries   = flag.Int("retries", 0, "re-run a transiently-failed benchmark up to this many extra times")
		watchdog  = flag.Duration("watchdog", 0, "detach an analyzer making no chunk progress for this long and fail its benchmark (0 = off)")
		chaosSeed = flag.Int64("chaos", 0, "arm a seeded chaos schedule: deterministic pipeline faults per benchmark plus journal I/O faults with -resume (0 = off; implies -retries 2 when -retries is unset)")
		traceDir  = flag.String("trace-cache", "", "persistent annotated trace store directory: warm entries replay zero-copy with no VM run, cold runs populate it (results are byte-identical either way)")
		coord     = flag.String("coordinator", "", "serve the suite's cells to ilplimitw workers on this address (e.g. :7070) instead of analyzing in-process")
		lease     = flag.Duration("fabric-lease", 10*time.Second, "requeue a distributed cell whose worker misses heartbeats for this long (with -coordinator)")
		drain     = flag.Duration("fabric-drain", 2*time.Second, "after a distributed run, keep answering workers for this long so they exit cleanly (with -coordinator)")
		verbose   = flag.Bool("v", false, "log pipeline progress to stderr")
		version   = flag.Bool("version", false, "print build provenance and exit")
	)
	flag.Parse()

	if *version {
		fmt.Printf("ilplimit %s %s\n", telemetry.GitRevision(), runtime.Version())
		return
	}

	if *table == 1 {
		fmt.Print(harness.Table1())
		return
	}

	var progress io.Writer
	if *verbose {
		progress = os.Stderr
	}
	opt := harness.Options{
		Scale: *scale, Progress: progress, Models: limits.AllModels(),
		Optimize: *optimize, Retries: *retries, Watchdog: *watchdog,
		TraceStore: *traceDir,
	}
	if *name != "" {
		// A restricted benchmark list still runs through RunSuite, so
		// journaling, retries, and degraded rendering all apply to it.
		for _, n := range strings.Split(*name, ",") {
			b, err := bench.ByName(strings.TrimSpace(n))
			if err != nil {
				fail(err)
			}
			opt.Benchmarks = append(opt.Benchmarks, b)
		}
	}
	if *chaosSeed != 0 {
		if *study != "" {
			fail(fmt.Errorf("-chaos cannot be combined with -study: the chaos schedule is bound to one suite configuration"))
		}
		if *coord != "" {
			fail(fmt.Errorf("-chaos cannot be combined with -coordinator: chaos faults inject into the in-process pipeline"))
		}
		benches := opt.Benchmarks
		if len(benches) == 0 {
			benches = bench.All()
		}
		names := make([]string, len(benches))
		for i, b := range benches {
			names[i] = b.Name
		}
		chaos = faultinject.NewChaos(*chaosSeed, names)
		opt.Faults = chaos.BenchPlan
		if opt.Retries == 0 {
			// A chaos run schedules transient faults; without a retry
			// budget every armed benchmark would simply fail.
			opt.Retries = 2
		}
		if progress != nil {
			fmt.Fprint(progress, chaos.String())
		}
	}
	if *resume != "" {
		if *study != "" {
			fail(fmt.Errorf("-resume cannot be combined with -study: study passes vary the configuration the journal is bound to"))
		}
		// A chaos run's journal lives on a fault-injecting filesystem —
		// the same schedule every time for the same seed.
		fsys := iofault.OS()
		if chaos != nil {
			fsys = iofault.Wrap(fsys, chaos.IOPlan())
		}
		j, err := journal.OpenFS(fsys, *resume, opt.JournalMeta(telemetry.GitRevision()))
		if err != nil {
			fail(err)
		}
		jnl = j
		opt.Journal = j
		if n := j.Recovered(); n > 0 && progress != nil {
			fmt.Fprintf(progress, "ilplimit: journal holds %d completed benchmark(s); resuming\n", n)
		}
		if t := j.Truncated(); t > 0 {
			fmt.Fprintf(os.Stderr, "ilplimit: journal: dropped %d corrupt tail byte(s) from an interrupted write\n", t)
		}
	}
	if *metrics || *debug != "" {
		opt.Metrics = telemetry.NewRegistry()
		// The report covers every benchmark the process ran — including
		// a study's repeated suite passes — so print it on all exits
		// after the run, not just the default path.
		// Note: fail() and the degraded-suite exit use os.Exit, which
		// skips this defer — the report covers successful runs only.
		if *metrics {
			defer func() { fmt.Print(harness.MetricsReport(opt.Metrics.Snapshot())) }()
		}
	}
	if *debug != "" {
		// Serve live metrics for the lifetime of the run.  -timeout only
		// cancels the measurement context; the server stays up until the
		// process exits, so a profile capture racing the deadline still
		// completes.  The bound address is announced on stderr because
		// ":0" picks an ephemeral port.
		opt.Metrics.PublishExpvar("ilplimit")
		ln, err := net.Listen("tcp", *debug)
		if err != nil {
			fail(fmt.Errorf("debug-addr %s: %w", *debug, err))
		}
		// nil handler = DefaultServeMux, where expvar and pprof live; a
		// deferred graceful Shutdown lets an in-flight scrape finish
		// before the process exits.
		dbg := httpserve.Start(ln, nil, httpserve.Options{})
		fmt.Fprintf(os.Stderr, "ilplimit: debug server listening on %s\n", dbg.Addr())
		defer func() { _ = dbg.Shutdown(time.Second) }()
	}
	if *timeout > 0 {
		ctx, cancel := context.WithTimeout(context.Background(), *timeout)
		defer cancel()
		opt.Context = ctx
	}
	if *coord != "" {
		if *study != "" {
			fail(fmt.Errorf("-coordinator cannot be combined with -study: study passes vary the configuration workers are fingerprinted against"))
		}
		// With -resume, grants and completions also persist to a recovery
		// journal beside the run journal, so a SIGKILLed coordinator
		// restarted with the same flags resumes the distributed run.
		var recovery *journal.Journal
		if *resume != "" {
			rj, err := journal.OpenNamed(iofault.OS(), *resume, "coordinator.ilpj", opt.JournalMeta(telemetry.GitRevision()))
			if err != nil {
				fail(fmt.Errorf("coordinator recovery journal: %w", err))
			}
			recovery = rj
		}
		c := fabric.NewCoordinator(opt.JournalMeta(telemetry.GitRevision()), fabric.CoordinatorOptions{
			LeaseTTL: *lease, Watchdog: opt.Watchdog,
			Metrics: opt.Metrics, Progress: progress,
			Recovery: recovery,
		})
		ln, err := net.Listen("tcp", *coord)
		if err != nil {
			fail(fmt.Errorf("coordinator %s: %w", *coord, err))
		}
		fsrv := httpserve.Start(ln, c.Handler(), httpserve.Options{})
		// Announced on stderr because ":0" picks an ephemeral port; tests
		// and scripts scrape this line to point workers at the run.
		fmt.Fprintf(os.Stderr, "ilplimit: coordinator listening on %s\n", fsrv.Addr())
		c.Start()
		opt.CellRunner = c.RunCell
		drainFor := *drain
		var once sync.Once
		shutdownFabric = func() {
			once.Do(func() {
				c.Finish()
				c.WaitDrained(drainFor)
				_ = fsrv.Shutdown(time.Second)
				c.Close()
				if recovery != nil {
					_ = recovery.Close()
				}
			})
		}
		defer shutdownFabric()
	}

	if *study != "" {
		i := slices.IndexFunc(harness.Studies, func(s harness.Study) bool { return s.Name == *study })
		if i < 0 {
			fail(fmt.Errorf("unknown study %q (want %s)", *study, studyNames()))
		}
		out, err := harness.Studies[i].Run(opt)
		if err != nil {
			fail(err)
		}
		fmt.Print(out)
		return
	}

	// A degraded suite (some benchmarks failed, some succeeded) still
	// renders whatever survived; the failure summary goes to stderr and
	// the process exits non-zero.
	var degraded *harness.SuiteError
	suite, err := harness.RunSuite(opt)
	// Release distributed workers before rendering: the suite is merged,
	// so the fabric has nothing left to serve but "done".
	shutdownFabric()
	if err != nil && !errors.As(err, &degraded) {
		fail(err)
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(suite); err != nil {
			fail(err)
		}
	} else {
		switch {
		case *table == 2:
			fmt.Print(suite.Table2())
		case *table == 3:
			fmt.Print(suite.Table3())
		case *table == 4:
			fmt.Print(suite.Table4())
		case *table != 0:
			fail(fmt.Errorf("unknown table %d", *table))
		case *figure == 4:
			fmt.Print(suite.Figure4())
		case *figure == 5:
			fmt.Print(suite.Figure5())
		case *figure == 6:
			fmt.Print(suite.Figure6())
		case *figure == 7:
			fmt.Print(suite.Figure7())
		case *figure != 0:
			fail(fmt.Errorf("unknown figure %d", *figure))
		default:
			fmt.Print(suite.Report())
		}
	}

	if degraded != nil {
		fmt.Fprintln(os.Stderr, "ilplimit:", degraded)
		fmt.Fprint(os.Stderr, suite.FailureSummary())
		if jnl != nil {
			_ = jnl.AppendNote("run degraded: " + degraded.Error())
			_ = jnl.Close()
		}
		reportChaos()
		shutdownFabric()
		os.Exit(1)
	}
	if jnl != nil {
		if err := jnl.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "ilplimit: journal:", err)
		}
	}
	reportChaos()
}

// studyNames lists harness.Studies as "a, b, or c".
func studyNames() string {
	names := make([]string, len(harness.Studies))
	for i, s := range harness.Studies {
		names[i] = s.Name
	}
	last := len(names) - 1
	return strings.Join(names[:last], ", ") + ", or " + names[last]
}

// fail reports a fatal error on stderr and exits non-zero.  When a run
// journal is open it records the reason first, so an interrupted -resume
// directory explains why its run ended.
func fail(err error) {
	fmt.Fprintln(os.Stderr, "ilplimit:", err)
	if jnl != nil {
		_ = jnl.AppendNote("run failed: " + err.Error())
		_ = jnl.Close()
	}
	reportChaos()
	shutdownFabric()
	os.Exit(1)
}
