// Package harness runs the complete experimental pipeline of the paper for
// one benchmark or the whole suite: compile the mini-C program, assemble
// it, build the static analyses, collect the branch profile with the same
// inputs, and schedule the trace under every machine model with and
// without perfect loop unrolling.  Reports regenerating each table and
// figure of the paper live in report.go.
//
// RunBenchmark is the unit of work; RunSuite fans benchmarks out across
// Options.Jobs goroutines and degrades gracefully when some fail: the
// surviving results render and the failures aggregate into a SuiteError.
// The ablation studies beyond the paper's tables (prediction scheme,
// window size, latency, guarded instructions, code quality, machine
// width, workload scale) live in studies.go and its siblings and reuse
// the same pipeline; all but the width study return one VariantStudy
// table of models × variants.  RunBenchmark, Measure and the studies analyze
// each program through one path (pass.go): compile, profile, predecode
// and one replay of the trace, served from the trace store when it
// holds the trace.  Measure serves the daemon's jobs (AnalyzeJob maps
// its results to a matrix row) and the public ilplimit.Measure.
//
// Setting Options.Metrics turns on pipeline telemetry
// (internal/telemetry): per-benchmark stage timings, VM throughput for
// the profile and analysis passes, replay-ring statistics and
// per-analyzer schedule results, all scoped under "bench.<name>.".
// MetricsReport renders a snapshot as the human-readable report behind
// `ilplimit -metrics`; see DESIGN.md §9 for the metric catalogue.
package harness
