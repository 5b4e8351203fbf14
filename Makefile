GO ?= go

.PHONY: build cross test vet vet-perfbench docs check race faultcheck soak \
	soak-server soak-fabric soak-chaos soak-cache bench bench-baseline \
	benchdiff bench-smoke

# Seeds for the chaos soak (comma-separated).  Pinned by default so CI
# is reproducible; override to sweep: ILP_CHAOS_SEEDS=1,2,3 make soak-chaos
ILP_CHAOS_SEEDS ?= 7,23

# Benchmarks captured in BENCH_limits.json and gated by benchdiff: the
# group-scheduling fan-out (live and warm-cache), the fused-set hot loop
# per unroll setting, the producer-side annotate/predecode stage, and the
# trace store's write/read paths.
BENCH_PATTERN = 'BenchmarkGroup|BenchmarkAnalyzerStep|BenchmarkAnnotate|BenchmarkTraceStore'

build:
	$(GO) build ./...

# Cross-build gate: internal/vm maps its memory image under a unix build
# tag and falls back to the heap elsewhere, so both sides must compile.
cross:
	GOOS=windows $(GO) build ./...
	GOOS=darwin $(GO) build ./...

test: build
	$(GO) test ./...

vet:
	$(GO) vet ./...

# perfbench/ is a module of its own (replace ilplimit => ../), so
# `go build ./...` never compiles it; vetting it here catches an API
# change that would break the benchmark.
vet-perfbench:
	cd perfbench && $(GO) vet ./...

# Documentation gate: vet, formatting, and godoc completeness — every
# exported identifier of every package must carry a doc comment
# (cmd/doccheck), so `go doc` stays a complete reference as the API grows.
docs:
	$(GO) vet ./...
	@fmtout=$$(gofmt -l .); if [ -n "$$fmtout" ]; then \
		echo "gofmt needed on:"; echo "$$fmtout"; exit 1; fi
	$(GO) run ./cmd/doccheck . ./internal/* ./cmd/*

# The default local gate: everything short of the long benchmarks.
check: build cross docs vet-perfbench test race soak soak-fabric soak-chaos soak-cache

# Trace-store soak: the store's commit/fallback protocol under the race
# detector, the harness-level cached-vs-live equivalences, then the CLI
# round-trips — cold populate byte-identical to uncached, warm replay,
# SIGKILL mid-population with deliberate wreckage (promoted temp files,
# truncated finals) repaired on the next run, and the chaos composition.
soak-cache:
	$(GO) test -race ./internal/tracestore
	$(GO) test -race -run TraceCache ./internal/harness
	$(GO) test -race -run TestCLITraceCache .

# Concurrency gate: the parallel trace fan-out (internal/limits), the
# suite-level job fan-out (internal/harness) and the VM image lifecycle
# (internal/vm) must stay race-clean.
race: faultcheck
	$(GO) vet ./...
	$(GO) test -race ./internal/limits ./internal/harness ./internal/tracestore ./internal/vm

# Robustness gate: deterministic fault injection (trap, consumer panic,
# chunk corruption, stalled consumer, cancellation) under the race
# detector, plus a short fuzz budget split between the trace-file reader,
# the daemon's request decoder and the assembler — the untrusted-input
# frontiers, since the daemon assembles client-supplied programs — and
# the fused kernel against the generic loop over fuzzed programs,
# model subsets and unroll settings (and, with unrolling off, every
# model against the independent reference scheduler, also under a
# fuzzed window and latency table).
faultcheck:
	$(GO) test -race ./internal/faultinject
	$(GO) test -fuzz FuzzReader -fuzztime 10s -run FuzzReader ./internal/trace
	$(GO) test -fuzz FuzzChunkFile -fuzztime 10s -run FuzzChunkFile ./internal/trace
	$(GO) test -fuzz FuzzDecodeBody -fuzztime 10s -run FuzzDecodeBody ./internal/server
	$(GO) test -fuzz FuzzAssemble -fuzztime 10s -run FuzzAssemble ./internal/asm
	$(GO) test -fuzz FuzzFusedMatchesGeneric -fuzztime 10s -run FuzzFusedMatchesGeneric ./internal/limits

# Resilience gate: the crash-safe journal, retry, and resume paths under
# the race detector, then the kill-9/resume CLI round-trip twice — the
# second pass catches state the first one leaks.
soak: faultcheck
	$(GO) test -race ./internal/journal
	$(GO) test -race -run 'Resume|Retr|Invariant|Watchdog' ./internal/harness
	$(GO) test -race -count 2 -run TestCLIKillResume .

# Fabric soak: the distributed coordinator/worker path under the race
# detector (lease expiry, stale-completion drops, requeue), then the
# three CLI round-trips — a 2-worker run byte-identical to a local one,
# byte-identical again after one worker SIGKILLs itself mid-cell, and
# byte-identical after the coordinator is SIGKILLed and restarted with
# -resume.
soak-fabric:
	$(GO) test -race ./internal/fabric
	$(GO) test -race -run 'TestCLIFabric|TestCLICoordinatorKillResume' .

# Chaos soak: the crash-consistency layer under the race detector — the
# injectable-fault filesystem and the journal's salvage sweeps — then
# the seeded chaos CLI round-trips: every pinned seed's fault schedule
# (VM traps, analyzer panics, slow consumers, journal write faults)
# must converge to output byte-identical to a clean run, and a
# SIGKILLed coordinator restarted with -resume must finish its
# distributed run byte-identical to a local one.
soak-chaos:
	$(GO) test -race ./internal/iofault ./internal/journal ./internal/fabric
	ILP_CHAOS_SEEDS=$(ILP_CHAOS_SEEDS) \
		$(GO) test -race -run 'TestCLIChaosSoak|TestCLICoordinatorKillResume' .

# Service soak: the daemon under the race detector (admission, quotas,
# single-flight cache, drain), then the live overload round-trip — a
# daemon at halved capacity under 2× open-loop load plus the abusive
# plans must shed with 429 + Retry-After, answer zero 5xx, survive a
# SIGKILL mid-suite-job, and drain back to an idle healthz.
soak-server:
	$(GO) test -race ./internal/server
	$(GO) test -race -run 'TestCLIVersion|TestCLIDaemon|TestCLIServerSoak' .

# Group-scheduling benchmarks (inline SerialReplay vs the ring fan-out
# of ReplayWith, live and warm-cache) plus the fused-set hot-loop
# microbenchmarks.
bench:
	$(GO) test -bench $(BENCH_PATTERN) -benchmem -benchtime 3x -run '^$$' .

# Refresh the committed baseline from this machine.
bench-baseline:
	$(GO) test -bench $(BENCH_PATTERN) -benchmem -benchtime 3x -run '^$$' . \
		| $(GO) run ./cmd/benchjson > BENCH_limits.json
	cat BENCH_limits.json

# Regression gate: rerun the baseline benchmarks and fail if any shared
# benchmark's ns/op regressed more than 15% vs BENCH_limits.json.
benchdiff:
	$(GO) test -bench $(BENCH_PATTERN) -benchmem -benchtime 3x -run '^$$' . \
		| $(GO) run ./cmd/benchdiff -baseline BENCH_limits.json -threshold 15

# CI smoke: one iteration of every baseline benchmark, parsed through
# benchdiff with the gate disabled (-threshold 0 would still fail on
# noise at 1 iteration, so a generous bar just proves the bench + diff
# plumbing runs end to end on shared runners).
bench-smoke:
	$(GO) test -bench $(BENCH_PATTERN) -benchmem -benchtime 1x -run '^$$' . \
		| $(GO) run ./cmd/benchdiff -baseline BENCH_limits.json -threshold 400
