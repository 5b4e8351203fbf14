package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"text/tabwriter"
	"time"

	"ilplimit/internal/asm"
	"ilplimit/internal/iofault"
	"ilplimit/internal/isa"
	"ilplimit/internal/limits"
	"ilplimit/internal/minic"
	"ilplimit/internal/predict"
	"ilplimit/internal/telemetry"
	"ilplimit/internal/trace"
	"ilplimit/internal/tracestore"
	"ilplimit/internal/vm"
)

// The traced run's layer ledger.  Each layer's public calls run one at
// a time, in the order harness.RunBenchmark and harness.AnalyzeJob make
// them, with a span around each call.  Because nothing else runs
// during a span, the process's CPU time over the span is the call's
// CPU time, goroutines and garbage collection included.  Layers that
// cannot be called alone (profile recording, annotation, the ring, the
// store cursor) are derived by subtracting a reference run from a
// whole one; their metric names say so in README.md.

// memWords is the VM and dependence-table size the harness defaults to.
const memWords = 1 << 20

// reconcileTolerance bounds |harness.unattributed_share|: the share of
// the untraced CPU time that the pipeline's layer spans do not explain.
const reconcileTolerance = 0.15

// span is one timed call.  Times are nanoseconds since the trace began.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Wall   int64  `json:"wall_ns"`
	CPU    int64  `json:"cpu_ns"`
}

// tracer records spans in memory; they are written out at the end.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// do runs f inside a span named name, a child of the innermost open span.
func (t *tracer) do(name string, f func()) {
	id, parent := len(t.spans), -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name})
	t.open = append(t.open, id)
	c0, w0 := cpuNow(), time.Now()
	f()
	w1, c1 := time.Now(), cpuNow()
	t.open = t.open[:len(t.open)-1]
	s := &t.spans[id]
	s.Start, s.End = w0.Sub(t.t0).Nanoseconds(), w1.Sub(t.t0).Nanoseconds()
	s.Wall, s.CPU = w1.Sub(w0).Nanoseconds(), (c1 - c0).Nanoseconds()
}

// selfTimes aggregates self wall and self CPU (a span's time minus the
// time its child spans cover) by span name, over spans[from:to].
func (t *tracer) selfTimes(from, to int) map[string]*selfTime {
	out := make(map[string]*selfTime)
	childWall := make(map[int]int64)
	childCPU := make(map[int]int64)
	for _, s := range t.spans[from:to] {
		if s.Parent >= from {
			childWall[s.Parent] += s.Wall
			childCPU[s.Parent] += s.CPU
		}
	}
	for _, s := range t.spans[from:to] {
		st := out[s.Name]
		if st == nil {
			st = &selfTime{}
			out[s.Name] = st
		}
		st.calls++
		st.wall += s.Wall - childWall[s.ID]
		st.cpu += s.CPU - childCPU[s.ID]
	}
	return out
}

type selfTime struct {
	calls     int
	wall, cpu int64
}

// input is one program the ledger decomposes: a suite benchmark or a
// daemon job.
type input struct {
	name string
	// source generates the program text; for a suite benchmark the call
	// is the bench.Source layer, for a job the text is given.
	source func() string
	// benchSrc marks a suite benchmark, whose path is RunBenchmark's;
	// a job's is AnalyzeJob's.
	benchSrc  bool
	pipeUnrol []bool             // unroll configs the real pipeline analyzes
	want      map[string]float64 // reference parallelism by analyzerKey
}

// unrollName labels an unroll configuration in metric names.
func unrollName(u bool) string {
	if u {
		return "unrolled"
	}
	return "plain"
}

// analyzerKey names one analyzer of a group: "<MODEL>.<unrolled|plain>".
func analyzerKey(m limits.Model, u bool) string { return m.String() + "." + unrollName(u) }

// keyed is an analyzer with its key.
type keyed struct {
	key string
	a   *limits.Analyzer
}

// newGroups builds one analyzer group per unroll config, as the harness
// does: unrolled analyzers first, each in model order.
func newGroups(st *limits.Static, words int, unroll []bool) []keyed {
	var out []keyed
	for _, u := range unroll {
		g := limits.NewGroup(st, words, limits.AllModels(), u)
		for _, a := range g.Analyzers {
			out = append(out, keyed{analyzerKey(a.Model(), u), a})
		}
	}
	return out
}

func analyzersOf(ks []keyed) []*limits.Analyzer {
	out := make([]*limits.Analyzer, len(ks))
	for i, k := range ks {
		out[i] = k.a
	}
	return out
}

func parOf(ks []keyed) map[string]float64 {
	out := make(map[string]float64, len(ks))
	for _, k := range ks {
		out[k.key] = k.a.Result().Parallelism()
	}
	return out
}

// samePar reports whether want agrees with got on every key of got.
func samePar(got, want map[string]float64) error {
	for k, v := range got {
		if w, ok := want[k]; !ok || w != v {
			return fmt.Errorf("%s: parallelism %v, reference %v", k, v, w)
		}
	}
	return nil
}

var bothUnroll = []bool{true, false}

// ledger runs the decomposition rounds and keeps their spans.
type ledger struct {
	tr     *tracer
	store  string // trace store the reference phase writes and reads
	warm   string // suite-warm: the populated store the pipeline replays
	instrs int64  // traced instructions seen in the current round
	steps  int64  // VM steps seen in the current round
}

// built is one input compiled, profiled and pre-decoded.
type built struct {
	prog          *isa.Program
	machine       *vm.VM
	st            *limits.Static
	instrs, steps int64 // traced instructions and VM steps of one run
}

// build runs the live path's calls up to pre-decoding, each through do
// (a span in the pipeline phase, a plain call when rebuilding).  The
// profiling pass is the caller's own: RunBenchmark's visitor also
// counts traced instructions and conditional branches, AnalyzeJob's
// only records, so a job's instrs stay 0 until countInstrs.
func build(in input, do func(string, func())) (*built, error) {
	ctx := context.Background()
	var (
		src, asmText string
		b            built
		err          error
	)
	if in.benchSrc {
		do("bench.source", func() { src = in.source() })
	} else {
		src = in.source()
	}
	do("minic.compile", func() { asmText, err = minic.Compile(src) })
	if err != nil {
		return nil, err
	}
	do("asm.assemble", func() { b.prog, err = asm.Assemble(asmText) })
	if err != nil {
		return nil, err
	}
	do("vm.new", func() { b.machine = vm.NewSized(b.prog, memWords) })
	var prof *predict.Profile
	if in.benchSrc {
		var condBr int64
		do("predict.profile", func() {
			prof = predict.NewProfile(b.prog)
			filter := trace.NewFilter(b.prog, nil)
			err = b.machine.RunContext(ctx, func(ev vm.Event) {
				prof.Record(ev)
				if !filter.Ignored(ev.Idx) {
					b.instrs++
					if b.prog.Instrs[ev.Idx].Op.IsCondBranch() {
						condBr++
					}
				}
			})
		})
	} else {
		do("predict.profile", func() {
			prof = predict.NewProfile(b.prog)
			err = b.machine.RunContext(ctx, prof.Record)
		})
	}
	if err != nil {
		return nil, err
	}
	b.steps = b.machine.Steps
	do("limits.predecode", func() { b.st, err = limits.NewStatic(b.prog, prof.Predictor()) })
	if err != nil {
		return nil, err
	}
	return &b, nil
}

// countInstrs sets b.instrs to the program's traced instructions,
// counted as RunBenchmark counts them (VM events outside perfectly
// inlined calls), in a run of its own.  It leaves the VM to be reset.
func (b *built) countInstrs() error {
	filter := trace.NewFilter(b.prog, nil)
	b.instrs = 0
	b.machine.Reset()
	return b.machine.RunContext(context.Background(), func(ev vm.Event) {
		if !filter.Ignored(ev.Idx) {
			b.instrs++
		}
	})
}

// pipeline times one input's calls exactly as RunBenchmark and
// AnalyzeJob make them, and checks the replay's parallelism against the
// reference.  On suite-warm that is the trace-store path.
func (l *ledger) pipeline(in input) error {
	if l.warm != "" {
		return l.warmPipeline(in)
	}
	b, err := build(in, l.tr.do)
	if err != nil {
		return err
	}
	var pipe []keyed
	l.tr.do("limits.newgroup", func() { pipe = newGroups(b.st, len(b.machine.Mem), in.pipeUnrol) })
	l.tr.do("vm.reset", b.machine.Reset)
	l.tr.do("limits.replay", func() {
		err = limits.ReplayWith(context.Background(), limits.ReplayOptions{}, b.machine.RunContext, analyzersOf(pipe)...)
	})
	if err != nil {
		return err
	}
	if err := samePar(parOf(pipe), in.want); err != nil {
		return fmt.Errorf("%s: ring replay: %w", in.name, err)
	}
	if !in.benchSrc {
		// After the job's last timed call, outside every span.
		if err := b.countInstrs(); err != nil {
			return err
		}
	}
	l.instrs += b.instrs
	l.steps += b.steps
	return nil
}

// storeOracle stands in for the predictor on the warm path, as the
// harness's own placeholder does: the replay reads mispredictions from
// the lanes stamped into the stored trace, so a query is a bug.
type storeOracle struct{}

func (storeOracle) Mispredicted(vm.Event) bool {
	panic("perfbench: warm replay queried the predictor")
}

// storeMeta is the part of the harness's trace-store sidecar that the
// warm path reads back.
type storeMeta struct {
	TraceInstructions int64
	Steps             int64
}

// warmPipeline times one suite benchmark's calls exactly as
// RunBenchmark makes them on a trace-store hit, against the store the
// untraced passes read: no VM, no profile, no ring.
func (l *ledger) warmPipeline(in input) error {
	tr := l.tr
	var (
		src, asmText string
		prog         *isa.Program
		st           *limits.Static
		s            *tracestore.Store
		rep          *tracestore.Replay
		pipe         []keyed
		lanes        int
		sm           storeMeta
		err          error
	)
	tr.do("bench.source", func() { src = in.source() })
	tr.do("minic.compile", func() { asmText, err = minic.Compile(src) })
	if err != nil {
		return err
	}
	tr.do("asm.assemble", func() { prog, err = asm.Assemble(asmText) })
	if err != nil {
		return err
	}
	tr.do("tracestore.open", func() { s, err = tracestore.Open(iofault.OS(), l.warm) })
	if err != nil {
		return err
	}
	tr.do("limits.predecode", func() { st, err = limits.NewStatic(prog, storeOracle{}) })
	if err != nil {
		return err
	}
	// The harness sizes the groups as vm.NewSized sizes a VM.
	words := max(memWords, int(isa.DataBase)+len(prog.Data)+1)
	tr.do("limits.newgroup", func() {
		pipe = newGroups(st, words, in.pipeUnrol)
		lanes = limits.AssignReplayLanes(analyzersOf(pipe)...)
	})
	tr.do("tracestore.open", func() {
		rep, err = s.Open(tracestore.Key{Bench: in.name, ProgramCRC: tracestore.ProgramCRC(prog),
			Annotation: st.AnnotationFingerprint(), Predictors: "profile", Lanes: lanes})
		if err == nil {
			err = json.Unmarshal(rep.Meta(), &sm)
		}
	})
	if rep != nil {
		defer rep.Close()
	}
	if err != nil {
		return fmt.Errorf("%s: trace store: %w", in.name, err)
	}
	tr.do("tracestore.replay", func() { err = rep.Run(context.Background(), false, analyzersOf(pipe)...) })
	if err != nil {
		return err
	}
	if err := samePar(parOf(pipe), in.want); err != nil {
		return fmt.Errorf("%s: store replay: %w", in.name, err)
	}
	l.instrs += sm.TraceInstructions
	l.steps += sm.Steps
	return nil
}

// references times the calls the derived layers subtract, each on
// fresh analyzers, and checks that every execution path computes the
// reference parallelism.  On suite-warm the pipeline phase never runs
// the VM, so this phase also times the live-only calls (the profile
// pass, the ring) whose layers every traced run reports, and the
// pipeline phase has already timed the store's open and replay.
func (l *ledger) references(in input) error {
	tr := l.tr
	ctx := context.Background()
	var b *built
	var err error
	rebuildDo := func(name string, f func()) {
		if l.warm != "" && name == "predict.profile" {
			tr.do(name, f)
		} else {
			f()
		}
	}
	tr.do("perfbench.rebuild", func() { b, err = build(in, rebuildDo) })
	if err != nil {
		return err
	}
	prog, machine, st, words := b.prog, b.machine, b.st, len(b.machine.Mem)
	machine.Reset()
	// Bare interpretation: the reference every derived VM-side layer
	// subtracts.
	tr.do("vm.run", func() { err = machine.RunContext(ctx, func(vm.Event) {}) })
	if err != nil {
		return err
	}
	// Annotation alone into one reused chunk, then each generated
	// stepper alone over the materialized chunks, on fresh analyzers.
	var ref []keyed
	tr.do("perfbench.groups", func() { ref = newGroups(st, words, bothUnroll) })
	refA := analyzersOf(ref)
	machine.Reset()
	c := limits.NewChunk(limits.ChunkEvents)
	tr.do("limits.annotate", func() {
		an := limits.NewAnnotator(refA...)
		err = machine.RunContext(ctx, func(ev vm.Event) {
			c.Append(an.Annotate(ev))
			if c.Len() == limits.ChunkEvents {
				c.Reset()
			}
		})
	})
	if err != nil {
		return err
	}
	machine.Reset()
	var chunks []*limits.Chunk
	tr.do("perfbench.materialize", func() {
		an := limits.NewAnnotator(refA...)
		cur := limits.NewChunk(limits.ChunkEvents)
		err = machine.RunContext(ctx, func(ev vm.Event) {
			cur.Append(an.Annotate(ev))
			if cur.Len() == limits.ChunkEvents {
				chunks = append(chunks, cur)
				cur = limits.NewChunk(limits.ChunkEvents)
			}
		})
		if cur.Len() > 0 {
			chunks = append(chunks, cur)
		}
	})
	if err != nil {
		return err
	}
	for _, k := range ref {
		a := k.a
		tr.do("limits.step."+k.key, func() {
			for _, ch := range chunks {
				a.StepChunk(ch)
			}
		})
	}
	refPar := parOf(ref)
	if err := samePar(in.want, refPar); err != nil {
		return fmt.Errorf("%s: steppers alone: %w", in.name, err)
	}

	// The serial backend, whole, for the ring's wall-time comparison.
	var ser []keyed
	tr.do("perfbench.groups", func() { ser = newGroups(st, words, bothUnroll) })
	machine.Reset()
	tr.do("limits.serial", func() { err = limits.SerialReplay(ctx, machine.RunContext, analyzersOf(ser)...) })
	if err != nil {
		return err
	}
	if err := samePar(parOf(ser), refPar); err != nil {
		return fmt.Errorf("%s: serial replay: %w", in.name, err)
	}
	if l.warm != "" {
		var ring []keyed
		tr.do("perfbench.groups", func() { ring = newGroups(st, words, in.pipeUnrol) })
		machine.Reset()
		tr.do("limits.replay", func() {
			err = limits.ReplayWith(ctx, limits.ReplayOptions{}, machine.RunContext, analyzersOf(ring)...)
		})
		if err != nil {
			return err
		}
		if err := samePar(parOf(ring), in.want); err != nil {
			return fmt.Errorf("%s: ring replay: %w", in.name, err)
		}
	}

	// The trace store: write path (open + populate + commit), open
	// (mmap and CRC check of every frame) and the cursor replay.  On
	// suite-warm the pipeline phase has timed the last two on the
	// set-up store, so only the write runs here.
	key := tracestore.Key{
		Bench:      "ledger",
		ProgramCRC: tracestore.ProgramCRC(prog),
		Annotation: st.AnnotationFingerprint(),
		Predictors: "profile",
		Lanes:      limits.AssignReplayLanes(refA...),
	}
	tr.do("tracestore.write", func() {
		var s *tracestore.Store
		var pop *tracestore.Populate
		if s, err = tracestore.Open(iofault.OS(), l.store); err != nil {
			return
		}
		if pop, err = s.BeginPopulate(key, nil); err != nil {
			return
		}
		sink := pop.Sink()
		for _, ch := range chunks {
			if err = sink(ch); err != nil {
				pop.Abort()
				return
			}
		}
		_ = sink(nil)
		err = pop.Commit()
	})
	if err != nil || l.warm != "" {
		return err
	}
	chunks = nil
	var rep *tracestore.Replay
	tr.do("tracestore.open", func() {
		var s *tracestore.Store
		if s, err = tracestore.Open(iofault.OS(), l.store); err == nil {
			rep, err = s.Open(key)
		}
	})
	if err != nil {
		return err
	}
	defer rep.Close()
	var warm []keyed
	tr.do("perfbench.groups", func() { warm = newGroups(st, words, in.pipeUnrol) })
	tr.do("tracestore.replay", func() { err = rep.Run(ctx, false, analyzersOf(warm)...) })
	if err != nil {
		return err
	}
	if err := samePar(parOf(warm), in.want); err != nil {
		return fmt.Errorf("%s: store replay: %w", in.name, err)
	}
	return nil
}

// Pipeline span sets: the calls the untraced path makes, whose self CPU
// in the pipeline phase must add up to the untraced CPU time.
var (
	livePath = []string{"bench.source", "minic.compile", "asm.assemble", "vm.new", "predict.profile",
		"limits.predecode", "limits.newgroup", "vm.reset", "limits.replay"}
	warmPath = []string{"bench.source", "minic.compile", "asm.assemble", "limits.predecode",
		"limits.newgroup", "tracestore.open", "tracestore.replay"}
)

// roundMetrics turns one round's self times into per-layer metrics.
// ops is the number of operations a round covers (1 suite pass, or the
// job count) and pipeUnrol the unroll configs on the real pipeline.
func roundMetrics(st map[string]*selfTime, instrs int64, ops int, pipeUnrol []bool) map[string]float64 {
	get := func(n string) *selfTime {
		if s := st[n]; s != nil {
			return s
		}
		return &selfTime{}
	}
	perInstr := func(ns int64) float64 { return float64(ns) / float64(instrs) }
	perOpMs := func(ns int64) float64 { return float64(ns) / 1e6 / float64(ops) }
	m := map[string]float64{
		"bench.source_ms":                 perOpMs(get("bench.source").wall),
		"minic.compile_ms":                perOpMs(get("minic.compile").wall),
		"asm.assemble_ms":                 perOpMs(get("asm.assemble").wall),
		"limits.predecode_ms":             perOpMs(get("limits.predecode").wall),
		"vm.run.ns_per_instr":             perInstr(get("vm.run").cpu),
		"predict.record.ns_per_instr":     perInstr(get("predict.profile").cpu - get("vm.run").cpu),
		"limits.annotate.ns_per_instr":    perInstr(get("limits.annotate").cpu - get("vm.run").cpu),
		"limits.ring.wall_ns_per_instr":   perInstr(get("limits.replay").wall),
		"limits.serial.wall_ns_per_instr": perInstr(get("limits.serial").wall),
		"tracestore.write.ns_per_instr":   perInstr(get("tracestore.write").wall),
		"tracestore.open_ms":              perOpMs(get("tracestore.open").wall),
	}
	var pipeSteps int64
	for _, u := range bothUnroll {
		for _, md := range limits.AllModels() {
			k := analyzerKey(md, u)
			c := get("limits.step." + k).cpu
			m["limits.step."+k+".ns_per_instr"] = perInstr(c)
			for _, pu := range pipeUnrol {
				if pu == u {
					pipeSteps += c
				}
			}
		}
	}
	m["limits.ring.cpu_ns_per_instr"] = perInstr(get("limits.replay").cpu - get("limits.annotate").cpu - pipeSteps)
	m["tracestore.cursor.cpu_ns_per_instr"] = perInstr(get("tracestore.replay").cpu - pipeSteps)
	return m
}

// pathCPU sums the self CPU of the named spans.
func pathCPU(st map[string]*selfTime, path []string) int64 {
	var n int64
	for _, name := range path {
		if s := st[name]; s != nil {
			n += s.cpu
		}
	}
	return n
}

// ledgerResult is the outcome of the decomposition rounds.
type ledgerResult struct {
	metrics  map[string]float64 // per-layer metrics, medians over rounds
	untraced time.Duration      // median untraced CPU per round
	pathCPU  time.Duration      // median Σ self CPU of the pipeline spans per round
	share    float64            // median per-round unattributed share
	rounds   int
	instrs   int64
	steps    int64
	self     map[string]*selfTime // last round's self times, for the table
}

// minRounds is the fewest ledger rounds a traced run makes; the
// reconciliation is the median of their shares.  A single round's share
// swings by up to ±16% when the host changes speed between the untraced
// runs and the spans; the median of three rounds still reached ±10.6%.
const minRounds = 5

// runLedger decomposes the inputs in rounds, at least minRounds and
// until seconds have passed, and reports per-layer medians.  Each round
// calls untraced, the workload's own path with telemetry off, right
// before and right after its pipeline phase; their mean is the
// reconciliation base for the pipeline phase's spans.  The host's speed
// drifts over minutes, so a base taken around the spans it is compared
// with keeps that drift out of the unattributed share.  The runtime.*
// metrics are read over the untraced runs; ops is the number of
// operations one of them covers.  A non-empty warm names the populated
// trace store of suite-warm, whose path the pipeline phase then runs.
func runLedger(tr *tracer, work string, inputs []input, ops int, seconds int, warm string,
	untraced func() error) (*ledgerResult, error) {
	l := &ledger{tr: tr, warm: warm, store: filepath.Join(work, fmt.Sprintf("ledger-store-%d", os.Getpid()))}
	defer os.RemoveAll(l.store)
	path := livePath
	if warm != "" {
		path = warmPath
	}
	perRound := make(map[string][]float64)
	var bases, paths, shares []float64
	var alloc uint64
	var gcCPU, allCPU float64
	var runs int
	// timeUntraced runs the untraced path once, outside the ledger's
	// spans' sums, and returns its CPU time.
	timeUntraced := func() (float64, error) {
		var cpu float64
		var err error
		tr.do("perfbench.untraced", func() {
			rt0, c0 := readRuntime(), cpuNow()
			err = untraced()
			cpu = float64(cpuNow() - c0)
			rt1 := readRuntime()
			alloc += rt1.alloc - rt0.alloc
			gcCPU += rt1.gcCPU - rt0.gcCPU
			allCPU += rt1.totalCP - rt0.totalCP
		})
		runs++
		runtime.GC()
		return cpu, err
	}
	res := &ledgerResult{}
	start := time.Now()
	for res.rounds < minRounds || time.Since(start) < time.Duration(seconds)*time.Second {
		runtime.GC()
		from, mid := len(tr.spans), 0
		l.instrs, l.steps = 0, 0
		var before, after float64
		var err error
		// The pipeline phase runs the inputs back to back like the
		// untraced path; the reference phase follows.  Collections
		// outside every span keep each phase's garbage out of the
		// other's spans.
		tr.do("perfbench.round", func() {
			if before, err = timeUntraced(); err != nil {
				return
			}
			for _, in := range inputs {
				if tr.do("perfbench.input", func() { err = l.pipeline(in) }); err != nil {
					return
				}
			}
			mid = len(tr.spans)
			runtime.GC()
			if after, err = timeUntraced(); err != nil {
				return
			}
			for _, in := range inputs {
				if tr.do("perfbench.input", func() { err = l.references(in) }); err != nil {
					return
				}
			}
		})
		if err != nil {
			return nil, err
		}
		st := tr.selfTimes(from, len(tr.spans))
		for k, v := range roundMetrics(st, l.instrs, ops, inputs[0].pipeUnrol) {
			perRound[k] = append(perRound[k], v)
		}
		base, pc := (before+after)/2, float64(pathCPU(tr.selfTimes(from, mid), path))
		bases, paths = append(bases, base), append(paths, pc)
		shares = append(shares, (base-pc)/base)
		res.rounds++
		res.instrs, res.steps, res.self = l.instrs, l.steps, st
	}
	res.metrics = make(map[string]float64, len(perRound)+2)
	for k, v := range perRound {
		res.metrics[k] = median(v)
	}
	res.metrics["runtime.alloc_mb_per_op"] = float64(alloc) / (1 << 20) / float64(runs*ops)
	if allCPU > 0 {
		res.metrics["runtime.gc_cpu_fraction"] = gcCPU / allCPU
	}
	res.untraced = time.Duration(median(bases))
	res.pathCPU = time.Duration(median(paths))
	res.share = median(shares)
	return res, nil
}

// countNames are the exact-repeat counters, in report order; ring
// stalls follow them but depend on timing and are never checked.
var countNames = []string{
	"trace_instructions", "vm_steps", "decode_events", "decode_branches", "mispredict_flags",
	"ring_chunks", "store_hits", "store_misses", "store_fallbacks", "jobs_ok", "jobs_shed", "cache_hits",
}

// counterSuffixes maps a count to the telemetry counters it sums, in
// any benchmark's or job's scope.
var counterSuffixes = map[string][]string{
	"vm_steps":         {"vm.profile.instructions", "vm.analysis.instructions"},
	"decode_events":    {"decode.events"},
	"decode_branches":  {"decode.branches"},
	"mispredict_flags": {"decode.mispredict_flags"},
	"ring_chunks":      {"ring.chunks"},
	"ring_stalls":      {"ring.producer_stalls", "ring.consumer_stalls"},
	"store_hits":       {"store.hits"},
	"store_misses":     {"store.misses"},
	"store_fallbacks":  {"store.fallbacks"},
}

// countsFrom sums the counters of a telemetry snapshot into counts.
func countsFrom(s *telemetry.Snapshot, counts map[string]int64) {
	if s == nil {
		return
	}
	for name, v := range s.Counters {
		for count, suffixes := range counterSuffixes {
			for _, suf := range suffixes {
				if name == suf || strings.HasSuffix(name, "."+suf) {
					counts[count] += v
				}
			}
		}
	}
}

// checkCounts compares the exact counters with a reference and returns
// one line per drift.
func checkCounts(got, want map[string]int64, what string) []string {
	var drift []string
	for _, n := range countNames {
		if got[n] != want[n] {
			drift = append(drift, fmt.Sprintf("count.%s = %d, %s has %d", n, got[n], what, want[n]))
		}
	}
	return drift
}

// setCounts reports every count as a per-layer metric.
func setCounts(r *report, counts map[string]int64) {
	for _, n := range append(countNames, "ring_stalls") {
		r.set("count."+n, float64(counts[n]), "count")
	}
}

// traceArtifacts writes the span file and the layer table under work
// and prints the table.  extra holds workload-specific lines.
func traceArtifacts(cfg config, tr *tracer, lr *ledgerResult, r *report, extra []string) error {
	dir := filepath.Join(cfg.work, "trace", cfg.workload)
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return err
	}
	spans, err := json.Marshal(tr.spans)
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "spans.json"), spans, 0o666); err != nil {
		return err
	}
	var table, notes, layers strings.Builder
	fmt.Fprintf(&table, "# %s traced run: %d ledger round(s), %d traced instructions per round\n",
		cfg.workload, lr.rounds, lr.instrs)
	fmt.Fprintf(&table, "\n## Self time by span (last round)\n\n")
	tw := tabwriter.NewWriter(&table, 2, 8, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "span\tcalls\tself wall ms\tself cpu ms\tcpu ns/instr\t")
	names := make([]string, 0, len(lr.self))
	for n := range lr.self {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		s := lr.self[n]
		fmt.Fprintf(tw, "%s\t%d\t%.3f\t%.3f\t%.3f\t\n", n, s.calls, float64(s.wall)/1e6, float64(s.cpu)/1e6,
			float64(s.cpu)/float64(lr.instrs))
	}
	tw.Flush()
	fmt.Fprintf(&layers, "\n## Per-layer metrics (median over rounds)\n\n")
	for _, n := range sortedKeys(lr.metrics) {
		if m, ok := r.Metrics[n]; ok {
			fmt.Fprintf(&layers, "%-44s %14.6g %s\n", n, m.Value, m.Unit)
		} else {
			fmt.Fprintf(&layers, "%-44s %14.6g (workload-specific)\n", n, lr.metrics[n])
		}
	}
	fmt.Fprintf(&notes, "\n## Workload notes\n\n")
	for _, e := range extra {
		fmt.Fprintln(&notes, e)
	}
	file := table.String() + layers.String() + notes.String()
	if err := os.WriteFile(filepath.Join(dir, "layers.txt"), []byte(file), 0o666); err != nil {
		return err
	}
	fmt.Print(table.String() + notes.String())
	fmt.Printf("span file: %s\n", filepath.Join(dir, "spans.json"))
	return nil
}

func sortedKeys(m map[string]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// perLayerNames are the per-layer metrics every traced run reports
// (BENCHMARK.json "per_layer"); workload-specific ones go to the table.
var perLayerNames = func() []string {
	names := []string{"minic.compile_ms", "asm.assemble_ms", "limits.predecode_ms",
		"vm.run.ns_per_instr", "predict.record.ns_per_instr", "limits.annotate.ns_per_instr"}
	for _, u := range bothUnroll {
		for _, md := range limits.AllModels() {
			names = append(names, "limits.step."+analyzerKey(md, u)+".ns_per_instr")
		}
	}
	return append(names, "limits.ring.cpu_ns_per_instr", "limits.ring.wall_ns_per_instr",
		"limits.serial.wall_ns_per_instr", "tracestore.write.ns_per_instr", "tracestore.open_ms",
		"tracestore.cursor.cpu_ns_per_instr")
}()

// layerReport fills the per-layer metrics common to every workload and
// the reconciliation against the untraced CPU time.
func layerReport(r *report, lr *ledgerResult, traceStart time.Time) {
	for _, n := range perLayerNames {
		unit := "ns"
		if strings.HasSuffix(n, "_ms") {
			unit = "ms"
		}
		r.set(n, lr.metrics[n], unit)
	}
	r.set("runtime.alloc_mb_per_op", lr.metrics["runtime.alloc_mb_per_op"], "MiB")
	r.set("runtime.gc_cpu_fraction", lr.metrics["runtime.gc_cpu_fraction"], "ratio")
	r.set("harness.unattributed_share", lr.share, "ratio")
	r.set("trace.wall_s", time.Since(traceStart).Seconds(), "s")
	if lr.share > reconcileTolerance || lr.share < -reconcileTolerance {
		fmt.Fprintf(os.Stderr, "perfbench: layers explain %.1f%% of the untraced CPU; tolerance is ±%.0f%%\n",
			100*(1-lr.share), 100*reconcileTolerance)
		r.Correct = false
	}
	fmt.Printf("reconciliation: untraced %.1f ms CPU per round, pipeline spans %.1f ms, unattributed %+.2f%% (median of %d rounds; tolerance ±%.0f%%)\n",
		float64(lr.untraced)/1e6, float64(lr.pathCPU)/1e6, 100*lr.share, lr.rounds, 100*reconcileTolerance)
}
