// Command ilplimitw is the distributed suite fabric's worker: it joins
// an `ilplimit -coordinator` run, pulls benchmark cells over the fabric
// wire protocol, executes each through the same pipeline a local run
// uses, and streams the results back.  Start any number of workers
// against one coordinator; work-stealing pull dispatch balances the
// cells across them, and the coordinator's merged output is
// byte-identical to a single-process run.
//
// Usage:
//
//	ilplimitw -coordinator http://127.0.0.1:7070       # join a run
//	ilplimitw -coordinator :7070 -id w1 -slots 2       # named, two cells at once
//	ilplimitw -coordinator :7070 -rejoin 2m            # outlive a coordinator restart
//	ilplimitw -coordinator :7070 -v                    # progress on stderr
//
// A worker whose binary or defaults drifted from the coordinator's
// configuration is refused at join time (fingerprint mismatch) rather
// than allowed to contribute incompatible results.  The worker exits 0
// when the coordinator reports the run complete, non-zero on any fatal
// error.  See DESIGN.md §13 for the protocol.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"ilplimit/internal/fabric"
	"ilplimit/internal/faultinject"
	"ilplimit/internal/telemetry"
)

func main() {
	var (
		coord   = flag.String("coordinator", "", "coordinator base URL (required; host:port is assumed http)")
		id      = flag.String("id", "", "worker name in leases and telemetry (default w<pid>)")
		slots   = flag.Int("slots", 1, "cells to run concurrently (each cell already fans out across cores)")
		poll    = flag.Duration("poll", 150*time.Millisecond, "idle re-lease interval while no cell is available")
		timeout = flag.Duration("timeout", 0, "give up after this duration (0 = run until the coordinator says done)")
		rejoin  = flag.Duration("rejoin", time.Minute, "tolerate a coordinator outage (crash, restart) for this long, retrying with jittered backoff, before giving up")
		fault   = flag.String("fault", "", "fabric fault plan, e.g. kill-after-leases=1,drop-completes=1 (testing only)")
		cache   = flag.String("trace-cache", "", "worker-local annotated trace store: cells for the same benchmark reuse one traced run instead of re-tracing per cell")
		verbose = flag.Bool("v", false, "log worker progress to stderr")
		version = flag.Bool("version", false, "print build provenance and exit")
	)
	flag.Parse()

	if *version {
		fmt.Printf("ilplimitw %s %s\n", telemetry.GitRevision(), runtime.Version())
		return
	}
	if *coord == "" {
		fail(fmt.Errorf("-coordinator is required (the address `ilplimit -coordinator` announced)"))
	}
	base := *coord
	if !strings.Contains(base, "://") {
		if strings.HasPrefix(base, ":") {
			base = "127.0.0.1" + base
		}
		base = "http://" + base
	}
	plan, err := faultinject.ParseFabricPlan(*fault)
	if err != nil {
		fail(err)
	}
	var progress io.Writer
	if *verbose {
		progress = os.Stderr
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	w := &fabric.Worker{
		Base:       base,
		ID:         *id,
		Slots:      *slots,
		Poll:       *poll,
		Progress:   progress,
		Plan:       plan,
		RejoinWait: *rejoin,
		TraceStore: *cache,
	}
	if err := w.Run(ctx); err != nil {
		fail(err)
	}
}

// fail reports a fatal error on stderr and exits non-zero.
func fail(err error) {
	fmt.Fprintln(os.Stderr, "ilplimitw:", err)
	os.Exit(1)
}
