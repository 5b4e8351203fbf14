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
// is refused.  One process at a time writes the directory: its pid
// goes in the directory's lock file, a second live writer is refused,
// and a killed writer's lock is taken over.  -resume cannot be combined
// with -study, whose passes vary the configuration per run.
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

func main() { os.Exit(run()) }

// run parses the flags, runs what they ask for and returns the exit
// status.  Every exit after the flags are parsed — success, a degraded
// suite or a failure — runs one deferred clean-up: it closes the
// -resume journal, prints the -chaos fired-fault summary, shuts down
// the -coordinator fabric and the -debug-addr server, and prints the
// -metrics report.
func run() int {
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
	switch {
	case *table < 0 || *table > 4:
		fmt.Fprintf(os.Stderr, "ilplimit: unknown table %d\n", *table)
		return 1
	case *figure != 0 && (*figure < 4 || *figure > 7):
		fmt.Fprintf(os.Stderr, "ilplimit: unknown figure %d\n", *figure)
		return 1
	}

	if *version {
		fmt.Printf("ilplimit %s %s\n", telemetry.GitRevision(), runtime.Version())
		return 0
	}

	if *table == 1 {
		fmt.Print(harness.Table1())
		return 0
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
	var (
		jnl            *journal.Journal   // the -resume run journal
		dirLock        *journal.DirLock   // the -resume directory's writer lock
		chaos          *faultinject.Chaos // the -chaos fault schedule
		dbg            *httpserve.Server  // the -debug-addr server
		shutdownFabric = func() {}        // idempotent; the suite path calls it early
	)
	defer func() {
		if jnl != nil {
			if err := jnl.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "ilplimit: journal:", err)
			}
		}
		if chaos != nil {
			fmt.Fprint(os.Stderr, "ilplimit: "+chaos.FiredSummary())
		}
		shutdownFabric()
		if dirLock != nil {
			// Released only after both journals in the directory closed.
			if err := dirLock.Unlock(); err != nil {
				fmt.Fprintln(os.Stderr, "ilplimit: journal:", err)
			}
		}
		if dbg != nil {
			_ = dbg.Shutdown(time.Second)
		}
		if *metrics && opt.Metrics != nil {
			// The report covers every benchmark the process ran,
			// including a study's repeated suite passes and a failed or
			// degraded run's.
			fmt.Print(harness.MetricsReport(opt.Metrics.Snapshot()))
		}
	}()
	// fail reports a fatal error on stderr and returns the exit status.
	// When a run journal is open it records the reason first, so an
	// interrupted -resume directory explains why its run ended.
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "ilplimit:", err)
		if jnl != nil {
			_ = jnl.AppendNote("run failed: " + err.Error())
		}
		return 1
	}
	if *name != "" {
		// A restricted benchmark list still runs through RunSuite, so
		// journaling, retries, and degraded rendering all apply to it.
		for _, n := range strings.Split(*name, ",") {
			b, err := bench.ByName(strings.TrimSpace(n))
			if err != nil {
				return fail(err)
			}
			opt.Benchmarks = append(opt.Benchmarks, b)
		}
	}
	if *chaosSeed != 0 {
		if *study != "" {
			return fail(fmt.Errorf("-chaos cannot be combined with -study: the chaos schedule is bound to one suite configuration"))
		}
		if *coord != "" {
			return fail(fmt.Errorf("-chaos cannot be combined with -coordinator: chaos faults inject into the in-process pipeline"))
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
			return fail(fmt.Errorf("-resume cannot be combined with -study: study passes vary the configuration the journal is bound to"))
		}
		// One live writer per directory: the run journal and the
		// coordinator's recovery journal append in place, so a second
		// process would write at the same offsets.  The lock goes through
		// the real filesystem, never the -chaos wrapper, so it draws
		// nothing from the fault schedule.
		fsys := iofault.OS()
		if err := fsys.MkdirAll(*resume, 0o755); err != nil {
			return fail(err)
		}
		var err error
		if dirLock, err = journal.LockDir(fsys, *resume); err != nil {
			return fail(err)
		}
		// A chaos run's journal lives on a fault-injecting filesystem —
		// the same schedule every time for the same seed.
		if chaos != nil {
			fsys = iofault.Wrap(fsys, chaos.IOPlan())
		}
		if jnl, err = journal.OpenFS(fsys, *resume, opt.JournalMeta(telemetry.GitRevision())); err != nil {
			return fail(err)
		}
		opt.Journal = jnl
		if n := jnl.Recovered(); n > 0 && progress != nil {
			fmt.Fprintf(progress, "ilplimit: journal holds %d completed benchmark(s); resuming\n", n)
		}
		if t := jnl.Truncated(); t > 0 {
			fmt.Fprintf(os.Stderr, "ilplimit: journal: dropped %d corrupt tail byte(s) from an interrupted write\n", t)
		}
	}
	if *metrics || *debug != "" {
		opt.Metrics = telemetry.NewRegistry()
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
			return fail(fmt.Errorf("debug-addr %s: %w", *debug, err))
		}
		// nil handler = DefaultServeMux, where expvar and pprof live; the
		// clean-up's graceful Shutdown lets an in-flight scrape finish
		// before the process exits.
		dbg = httpserve.Start(ln, nil, httpserve.Options{})
		fmt.Fprintf(os.Stderr, "ilplimit: debug server listening on %s\n", dbg.Addr())
	}
	if *timeout > 0 {
		ctx, cancel := context.WithTimeout(context.Background(), *timeout)
		defer cancel()
		opt.Context = ctx
	}
	if *coord != "" {
		if *study != "" {
			return fail(fmt.Errorf("-coordinator cannot be combined with -study: study passes vary the configuration workers are fingerprinted against"))
		}
		// With -resume, grants and completions also persist to a recovery
		// journal beside the run journal, so a SIGKILLed coordinator
		// restarted with the same flags resumes the distributed run.
		var recovery *journal.Journal
		if *resume != "" {
			rj, err := journal.OpenNamed(iofault.OS(), *resume, "coordinator.ilpj", opt.JournalMeta(telemetry.GitRevision()))
			if err != nil {
				return fail(fmt.Errorf("coordinator recovery journal: %w", err))
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
			return fail(fmt.Errorf("coordinator %s: %w", *coord, err))
		}
		fsrv := httpserve.Start(ln, c.Handler(), httpserve.Options{})
		// Announced on stderr because ":0" picks an ephemeral port; tests
		// and scripts scrape this line to point workers at the run.
		fmt.Fprintf(os.Stderr, "ilplimit: coordinator listening on %s\n", fsrv.Addr())
		opt.CellRunner = c.RunCell
		drainFor := *drain
		var once sync.Once
		shutdownFabric = func() {
			once.Do(func() {
				c.Finish()
				c.WaitDrained(drainFor)
				_ = fsrv.Shutdown(time.Second)
				if recovery != nil {
					_ = recovery.Close()
				}
			})
		}
	}

	if *study != "" {
		i := slices.IndexFunc(harness.Studies, func(s harness.Study) bool { return s.Name == *study })
		if i < 0 {
			return fail(fmt.Errorf("unknown study %q (want %s)", *study, studyNames()))
		}
		out, err := harness.Studies[i].Run(opt)
		if err != nil {
			return fail(err)
		}
		fmt.Print(out)
		return 0
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
		return fail(err)
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(suite); err != nil {
			return fail(err)
		}
	} else {
		switch {
		case *table == 2:
			fmt.Print(suite.Table2())
		case *table == 3:
			fmt.Print(suite.Table3())
		case *table == 4:
			fmt.Print(suite.Table4())
		case *figure == 4:
			fmt.Print(suite.Figure4())
		case *figure == 5:
			fmt.Print(suite.Figure5())
		case *figure == 6:
			fmt.Print(suite.Figure6())
		case *figure == 7:
			fmt.Print(suite.Figure7())
		default:
			fmt.Print(suite.Report())
		}
	}

	if degraded != nil {
		fmt.Fprintln(os.Stderr, "ilplimit:", degraded)
		fmt.Fprint(os.Stderr, suite.FailureSummary())
		if jnl != nil {
			_ = jnl.AppendNote("run degraded: " + degraded.Error())
		}
		return 1
	}
	return 0
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
