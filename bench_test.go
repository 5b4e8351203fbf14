// These benchmarks regenerate every table and figure of Lam & Wilson,
// "Limits of Control Flow on Parallelism" (ISCA 1992).
// Each Benchmark* function runs the complete pipeline that reproduces one
// experiment and logs the rendered table/figure; timings measure the cost
// of regenerating that experiment from scratch.
//
//	go test -bench=Table3 -benchtime=1x -v .
//
// prints the paper's Table 3 from a fresh run.
package ilplimit_test

import (
	"context"
	"testing"

	"ilplimit/internal/asm"
	"ilplimit/internal/bench"
	"ilplimit/internal/harness"
	"ilplimit/internal/iofault"
	"ilplimit/internal/isa"
	"ilplimit/internal/limits"
	"ilplimit/internal/minic"
	"ilplimit/internal/predict"
	"ilplimit/internal/telemetry"
	"ilplimit/internal/tracestore"
	"ilplimit/internal/vm"
)

// runSuite executes the pipeline over the whole suite with the given
// models.
func runSuite(b *testing.B, models []limits.Model) *harness.SuiteResult {
	b.Helper()
	s, err := harness.RunSuite(harness.Options{Scale: 1, Models: models})
	if err != nil {
		b.Fatal(err)
	}
	return s
}

func BenchmarkTable1Inventory(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		out = harness.Table1()
	}
	b.Log("\n" + out)
}

func BenchmarkTable2BranchStats(b *testing.B) {
	// Table 2 needs only the profiling pass; restricting the models to
	// ORACLE keeps the analysis cost minimal while reusing the pipeline.
	var out string
	for i := 0; i < b.N; i++ {
		s := runSuite(b, []limits.Model{limits.Oracle})
		out = s.Table2()
	}
	b.Log("\n" + out)
}

func BenchmarkTable3Parallelism(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		s := runSuite(b, limits.AllModels())
		out = s.Table3()
	}
	b.Log("\n" + out)
}

func BenchmarkTable4Unrolling(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		s := runSuite(b, limits.AllModels())
		out = s.Table4()
	}
	b.Log("\n" + out)
}

func BenchmarkFigure4ControlDependence(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		s := runSuite(b, []limits.Model{limits.Base, limits.CD, limits.CDMF})
		out = s.Figure4()
	}
	b.Log("\n" + out)
}

func BenchmarkFigure5Speculation(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		s := runSuite(b, []limits.Model{limits.Base, limits.SP, limits.SPCD, limits.SPCDMF})
		out = s.Figure5()
	}
	b.Log("\n" + out)
}

func BenchmarkFigure6MispredictionDistances(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		s := runSuite(b, []limits.Model{limits.SP})
		out = s.Figure6()
	}
	b.Log("\n" + out)
}

func BenchmarkFigure7SegmentParallelism(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		s := runSuite(b, []limits.Model{limits.SP})
		out = s.Figure7()
	}
	b.Log("\n" + out)
}

// Ablation studies (beyond the paper's tables; see DESIGN.md):
// prediction scheme, scheduling-window size, latency model, and guarded
// instructions.

func BenchmarkStudyPrediction(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		s, err := harness.RunPredictionStudy(harness.Options{Scale: 1})
		if err != nil {
			b.Fatal(err)
		}
		out = s.Render()
	}
	b.Log("\n" + out)
}

func BenchmarkStudyWindow(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		s, err := harness.RunWindowStudy(harness.Options{Scale: 1})
		if err != nil {
			b.Fatal(err)
		}
		out = s.Render()
	}
	b.Log("\n" + out)
}

func BenchmarkStudyLatency(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		s, err := harness.RunLatencyStudy(harness.Options{Scale: 1})
		if err != nil {
			b.Fatal(err)
		}
		out = s.Render()
	}
	b.Log("\n" + out)
}

func BenchmarkStudyGuarded(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		s, err := harness.RunGuardedStudy(harness.Options{Scale: 1})
		if err != nil {
			b.Fatal(err)
		}
		out = s.Render()
	}
	b.Log("\n" + out)
}

func BenchmarkStudyWidth(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		s, err := harness.RunWidthStudy(harness.Options{Scale: 1})
		if err != nil {
			b.Fatal(err)
		}
		out = s.Render()
	}
	b.Log("\n" + out)
}

func BenchmarkStudyScale(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		s, err := harness.RunScaleStudy(harness.Options{})
		if err != nil {
			b.Fatal(err)
		}
		out = s.Render()
	}
	b.Log("\n" + out)
}

func BenchmarkStudyQuality(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		s, err := harness.RunQualityStudy(harness.Options{Scale: 1})
		if err != nil {
			b.Fatal(err)
		}
		out = s.Render()
	}
	b.Log("\n" + out)
}

// ---- Group scheduling: serial vs parallel fan-out ----
//
// BenchmarkGroupSerial and BenchmarkGroupParallel isolate the analysis
// pass of RunBenchmark — 7 models × 2 unroll configs over one captured
// trace — comparing the single-goroutine inline chunk loop
// (limits.SerialReplay) with the broadcast-ring fan-out
// (limits.ReplayWith).  Run with
//
//	go test -bench BenchmarkGroup -benchmem .
//
// On a multi-core machine the parallel path approaches a 1/Nth-analyzer
// wall clock; bytes/op reflects the paged dependence tables (pages
// materialize per touched 4K-word region instead of 8 MiB per analyzer).

// groupTrace captures one benchmark's static analysis and full dynamic
// trace so every iteration replays identical events.
type groupTrace struct {
	prog     *isa.Program
	st       *limits.Static
	events   []vm.Event
	memWords int
}

var groupTraceCache = map[string]*groupTrace{}

// run replays the captured events; it has the shape of limits.RunFunc.
func (tr *groupTrace) run(_ context.Context, visit func(vm.Event)) error {
	for _, ev := range tr.events {
		visit(ev)
	}
	return nil
}

func loadGroupTrace(b *testing.B, name string) *groupTrace {
	b.Helper()
	if tr, ok := groupTraceCache[name]; ok {
		return tr
	}
	bm, err := bench.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	asmText, err := minic.Compile(bm.Source(1))
	if err != nil {
		b.Fatal(err)
	}
	prog, err := asm.Assemble(asmText)
	if err != nil {
		b.Fatal(err)
	}
	machine := vm.NewSized(prog, 1<<20)
	machine.StepLimit = 1 << 32
	prof := predict.NewProfile(prog)
	if err := machine.Run(prof.Record); err != nil {
		b.Fatal(err)
	}
	st, err := limits.NewStatic(prog, prof.Predictor())
	if err != nil {
		b.Fatal(err)
	}
	machine.Reset()
	events := make([]vm.Event, 0, machine.Steps)
	if err := machine.Run(func(ev vm.Event) { events = append(events, ev) }); err != nil {
		b.Fatal(err)
	}
	tr := &groupTrace{prog: prog, st: st, events: events, memWords: len(machine.Mem)}
	groupTraceCache[name] = tr
	return tr
}

// benchGroups builds the same analyzer set RunBenchmark schedules: every
// model with and without perfect unrolling.
func benchGroups(tr *groupTrace) (*limits.Group, *limits.Group, []*limits.Analyzer) {
	unrolled := limits.NewGroup(tr.st, tr.memWords, limits.AllModels(), true)
	plain := limits.NewGroup(tr.st, tr.memWords, limits.AllModels(), false)
	all := make([]*limits.Analyzer, 0, len(unrolled.Analyzers)+len(plain.Analyzers))
	all = append(all, unrolled.Analyzers...)
	all = append(all, plain.Analyzers...)
	return unrolled, plain, all
}

func benchGroupScheduling(b *testing.B, serial bool) {
	for _, name := range []string{"espresso", "ccom"} {
		tr := loadGroupTrace(b, name)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				unrolled, _, all := benchGroups(tr)
				var err error
				if serial {
					err = limits.SerialReplay(context.Background(), tr.run, all...)
				} else {
					err = limits.ReplayWith(context.Background(), limits.ReplayOptions{}, tr.run, all...)
				}
				if err != nil {
					b.Fatal(err)
				}
				if rs := unrolled.Results(); rs[0].Cycles == 0 {
					b.Fatal("empty result")
				}
			}
			b.ReportMetric(float64(len(tr.events)), "instrs/op")
		})
	}
}

func BenchmarkGroupSerial(b *testing.B)   { benchGroupScheduling(b, true) }
func BenchmarkGroupParallel(b *testing.B) { benchGroupScheduling(b, false) }

// BenchmarkGroupParallelObserved is BenchmarkGroupParallel with a live
// telemetry registry, for two baselines at once: its ns/op against
// BenchmarkGroupParallel bounds the enabled-path overhead, and its
// ring-* custom metrics land in BENCH_limits.json so wall-clock
// regressions can be checked against ring-occupancy data (a rising
// ring-hwm or stall count explains a slowdown as flow-control pressure
// rather than per-event cost).
func BenchmarkGroupParallelObserved(b *testing.B) {
	for _, name := range []string{"espresso", "ccom"} {
		tr := loadGroupTrace(b, name)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			var prodStalls, consStalls, hwm int64
			for i := 0; i < b.N; i++ {
				_, _, all := benchGroups(tr)
				m := telemetry.NewRegistry()
				err := limits.ReplayWith(context.Background(), limits.ReplayOptions{Metrics: m}, tr.run, all...)
				if err != nil {
					b.Fatal(err)
				}
				s := m.Snapshot()
				prodStalls += s.Counters["ring.producer_stalls"]
				consStalls += s.Counters["ring.consumer_stalls"]
				if v := s.Gauges["ring.occupancy_hwm"]; v > hwm {
					hwm = v
				}
			}
			b.ReportMetric(float64(len(tr.events)), "instrs/op")
			b.ReportMetric(float64(hwm), "ring-hwm")
			b.ReportMetric(float64(prodStalls)/float64(b.N), "ring-prod-stalls/op")
			b.ReportMetric(float64(consStalls)/float64(b.N), "ring-cons-stalls/op")
		})
	}
}

// populateGroupStore traces the captured benchmark once into a fresh
// trace store and returns the store and the key the entry lives under —
// the untimed setup the cached benchmarks replay against.
func populateGroupStore(b *testing.B, tr *groupTrace, name, dir string) (*tracestore.Store, tracestore.Key) {
	b.Helper()
	store, err := tracestore.Open(iofault.OS(), dir)
	if err != nil {
		b.Fatal(err)
	}
	_, _, all := benchGroups(tr)
	key := tracestore.Key{
		Bench:      name,
		ProgramCRC: tracestore.ProgramCRC(tr.prog),
		Annotation: tr.st.AnnotationFingerprint(),
		Predictors: "profile",
		Lanes:      limits.AssignReplayLanes(all...),
	}
	pop, err := store.BeginPopulate(key, nil)
	if err != nil {
		b.Fatal(err)
	}
	err = limits.ReplayWith(context.Background(), limits.ReplayOptions{Sink: pop.Sink()}, tr.run, all...)
	if err != nil {
		pop.Abort()
		b.Fatal(err)
	}
	if err := pop.Commit(); err != nil {
		b.Fatal(err)
	}
	return store, key
}

// BenchmarkGroupCached is the warm-path counterpart of
// BenchmarkGroupParallel: the same 7 models × 2 unroll configs, but fed
// from a committed trace-store entry — mmap'd frames stepped through
// one fused set per unroll setting behind independent cursors — with
// no VM run, no annotation, and no ring.  Its ns/op against
// BenchmarkGroupParallel is the headline number of the trace store: the
// cost of an analysis pass once tracing is paid for.
func BenchmarkGroupCached(b *testing.B) {
	for _, name := range []string{"espresso", "ccom"} {
		tr := loadGroupTrace(b, name)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			store, key := populateGroupStore(b, tr, name, b.TempDir())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				unrolled, _, all := benchGroups(tr)
				rep, err := store.Open(key)
				if err != nil {
					b.Fatal(err)
				}
				if err := rep.Run(context.Background(), false, all...); err != nil {
					b.Fatal(err)
				}
				if err := rep.Close(); err != nil {
					b.Fatal(err)
				}
				if rs := unrolled.Results(); rs[0].Cycles == 0 {
					b.Fatal("empty result")
				}
			}
			b.ReportMetric(float64(len(tr.events)), "instrs/op")
		})
	}
}

// BenchmarkTraceStoreWrite measures the spill path in isolation: the
// captured trace is pre-decoded into columnar chunks once, untimed, so
// each iteration times exactly what a populate adds to a cold run —
// framing, CRCs, the fsync, and the atomic rename (each iteration
// rewrites the same key, replacing the previous entry).
func BenchmarkTraceStoreWrite(b *testing.B) {
	tr := loadGroupTrace(b, "ccom")
	chunks := chunkTrace(tr, limits.SPCDMF)
	store, err := tracestore.Open(iofault.OS(), b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	key := tracestore.Key{
		Bench:      "ccom",
		ProgramCRC: tracestore.ProgramCRC(tr.prog),
		Annotation: tr.st.AnnotationFingerprint(),
		Predictors: "profile",
		Lanes:      1,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pop, err := store.BeginPopulate(key, nil)
		if err != nil {
			b.Fatal(err)
		}
		sink := pop.Sink()
		for _, c := range chunks {
			if err := sink(c); err != nil {
				b.Fatal(err)
			}
		}
		if err := sink(nil); err != nil {
			b.Fatal(err)
		}
		if err := pop.Commit(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(tr.events)), "instrs/op")
}

// BenchmarkTraceStoreRead measures the warm open-and-stream path for
// the seven-model set of one unroll setting: mmap, validate, and walk
// every frame through one fused set.  Against BenchmarkAnalyzerStep/plain
// (the same set over pre-decoded in-memory chunks) it bounds the store's
// own overhead — open cost plus any per-frame view arithmetic.
func BenchmarkTraceStoreRead(b *testing.B) {
	tr := loadGroupTrace(b, "ccom")
	store, key := populateGroupStore(b, tr, "ccom", b.TempDir())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := limits.NewGroup(tr.st, tr.memWords, limits.AllModels(), false)
		rep, err := store.Open(key)
		if err != nil {
			b.Fatal(err)
		}
		if err := rep.Run(context.Background(), false, g.Analyzers...); err != nil {
			b.Fatal(err)
		}
		if err := rep.Close(); err != nil {
			b.Fatal(err)
		}
		if g.Results()[0].Cycles == 0 {
			b.Fatal("empty result")
		}
	}
	b.ReportMetric(float64(len(tr.events)), "instrs/op")
}

// chunkTrace pre-decodes a captured trace into columnar chunks with a
// throwaway analyzer of the same (Static, lane 0) shape every fresh
// analyzer gets — the producer's job in a replay, done once outside the
// timed region.
func chunkTrace(tr *groupTrace, m limits.Model) []*limits.Chunk {
	an := limits.NewAnnotator(limits.NewAnalyzer(tr.st, m, false, tr.memWords))
	var chunks []*limits.Chunk
	c := limits.NewChunk(limits.ChunkEvents)
	for _, ev := range tr.events {
		c.Append(an.Annotate(ev))
		if c.Len() == limits.ChunkEvents {
			chunks = append(chunks, c)
			c = limits.NewChunk(limits.ChunkEvents)
		}
	}
	if c.Len() > 0 {
		chunks = append(chunks, c)
	}
	return chunks
}

// BenchmarkAnalyzerStep measures the fused kernel: the seven-model set
// of each unroll setting over the captured ccom trace, through
// limits.ReplayChunks (the chunk entry the trace store replays
// through).  Events are pre-decoded into chunks once outside the timed
// region, so ns/op isolates one fused set's stepping — the cost that
// bounds a replay's slowest consumer.
func BenchmarkAnalyzerStep(b *testing.B) {
	tr := loadGroupTrace(b, "ccom")
	chunks := chunkTrace(tr, limits.SPCDMF)
	for _, unroll := range []bool{true, false} {
		name := "plain"
		if unroll {
			name = "unrolled"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g := limits.NewGroup(tr.st, tr.memWords, limits.AllModels(), unroll)
				if err := limits.ReplayChunks(context.Background(), chunks, g.Analyzers...); err != nil {
					b.Fatal(err)
				}
				if g.Results()[0].Cycles == 0 {
					b.Fatal("empty result")
				}
			}
			b.ReportMetric(float64(len(tr.events)), "instrs/op")
		})
	}
}

// BenchmarkAnnotate measures the producer-side pre-decode path in
// isolation: one Annotator pass streaming the captured trace into a
// recycled columnar chunk, exactly the per-event work the replay
// producer performs between VM dispatch and ring publish.  With the
// analyzer hot loop fused, this is the floor the producer puts
// under every replay — it is gated in BENCH_limits.json so the
// annotator cannot silently regress behind the analyzer wins.
func BenchmarkAnnotate(b *testing.B) {
	for _, name := range []string{"espresso", "ccom"} {
		tr := loadGroupTrace(b, name)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			// One speculative analyzer pins the common lane shape (all
			// harness analyzers share one Static, hence one lane).
			a := limits.NewAnalyzer(tr.st, limits.SPCDMF, false, tr.memWords)
			c := limits.NewChunk(limits.ChunkEvents)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// A fresh Annotator per iteration, as every replay
				// creates one.
				an := limits.NewAnnotator(a)
				for _, ev := range tr.events {
					c.Append(an.Annotate(ev))
					if c.Len() == limits.ChunkEvents {
						c.Reset()
					}
				}
				c.Reset()
			}
			b.ReportMetric(float64(len(tr.events)), "instrs/op")
		})
	}
}

// BenchmarkPipelineSingle measures the per-benchmark pipeline cost under
// all models — the unit of work every table above is built from.
func BenchmarkPipelineSingle(b *testing.B) {
	for _, name := range []string{"ccom", "espresso", "matrix300"} {
		bm, err := bench.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := harness.RunBenchmark(bm, harness.Options{Scale: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
