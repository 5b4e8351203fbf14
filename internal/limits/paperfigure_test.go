package limits

import (
	"context"
	"go/ast"
	"go/parser"
	"go/token"
	"reflect"
	"strconv"
	"testing"

	"ilplimit/internal/asm"
	"ilplimit/internal/predict"
	"ilplimit/internal/vm"
)

// This file pins the paper's Figures 2–3 worked example
// (examples/paperfigure3) as exact per-model results: the example's
// program is read from its source, so an edit there must update these
// goldens.

// paperFigureSrc returns the assembly the example declares as `const
// src`.
func paperFigureSrc(t *testing.T) string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "../../examples/paperfigure3/main.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range f.Decls {
		gd, ok := d.(*ast.GenDecl)
		if !ok || gd.Tok != token.CONST {
			continue
		}
		for _, spec := range gd.Specs {
			vs := spec.(*ast.ValueSpec)
			for i, name := range vs.Names {
				if name.Name != "src" {
					continue
				}
				lit, ok := vs.Values[i].(*ast.BasicLit)
				if !ok {
					t.Fatal("paperfigure3: const src is not a string literal")
				}
				s, err := strconv.Unquote(lit.Value)
				if err != nil {
					t.Fatal(err)
				}
				return s
			}
		}
	}
	t.Fatal("paperfigure3: no const src")
	return ""
}

// paperFigureTrace assembles the example with its forced predictions —
// the if-branch predicted not taken, the loop branch taken — and
// captures the trace.
func paperFigureTrace(t *testing.T) (*Static, []vm.Event, int) {
	t.Helper()
	prog, err := asm.Assemble(paperFigureSrc(t))
	if err != nil {
		t.Fatal(err)
	}
	take := map[int]bool{}
	for i := range prog.Instrs {
		if prog.Instrs[i].Op.IsCondBranch() {
			switch prog.Instrs[i].TargetSym {
			case "armB":
				take[i] = false
			case "loop":
				take[i] = true
			}
		}
	}
	if len(take) != 2 {
		t.Fatalf("paperfigure3: forced %d branches, want 2", len(take))
	}
	st, err := NewStatic(prog, predict.NewStaticPredictor(prog, take))
	if err != nil {
		t.Fatal(err)
	}
	machine := vm.NewSized(prog, 1<<12)
	defer machine.Release()
	var events []vm.Event
	if err := machine.Run(func(ev vm.Event) { events = append(events, ev) }); err != nil {
		t.Fatal(err)
	}
	return st, events, len(machine.Mem)
}

// TestPaperFigureGolden checks every model's instruction and cycle
// counts on the worked example, without and with perfect unrolling,
// through the generic loop (Step and StepChunk) and a fused replay of
// the seven-model set.
func TestPaperFigureGolden(t *testing.T) {
	type counts struct{ instrs, cycles int64 }
	// Without unrolling these are the counts the example prints.
	golden := map[bool][NumModels]counts{
		false: {
			Base:   {30, 19},
			CD:     {30, 15},
			CDMF:   {30, 10},
			SP:     {30, 9},
			SPCD:   {30, 6},
			SPCDMF: {30, 6},
			Oracle: {30, 6},
		},
		true: {
			Base:   {24, 13},
			CD:     {24, 7},
			CDMF:   {24, 5},
			SP:     {24, 8},
			SPCD:   {24, 5},
			SPCDMF: {24, 5},
			Oracle: {24, 4},
		},
	}
	st, events, memWords := paperFigureTrace(t)
	chunks := chunkify(st, events, memWords)
	for _, unroll := range []bool{false, true} {
		fused := NewGroup(st, memWords, AllModels(), unroll)
		if err := ReplayWith(context.Background(), ReplayOptions{}, replayFromEvents(events), fused.Analyzers...); err != nil {
			t.Fatal(err)
		}
		for _, m := range AllModels() {
			stepped := NewAnalyzer(st, m, unroll, memWords)
			for _, ev := range events {
				stepped.Step(ev)
			}
			chunked := NewAnalyzer(st, m, unroll, memWords)
			for _, c := range chunks {
				chunked.StepChunk(c)
			}
			got := stepped.Result()
			if want := golden[unroll][m]; got.Instructions != want.instrs || got.Cycles != want.cycles {
				t.Errorf("%v unroll=%v: Step = %d instructions in %d cycles, want %d in %d",
					m, unroll, got.Instructions, got.Cycles, want.instrs, want.cycles)
			}
			if c := chunked.Result(); !reflect.DeepEqual(c, got) {
				t.Errorf("%v unroll=%v: StepChunk diverges from Step\ngot:  %+v\nwant: %+v", m, unroll, c, got)
			}
			if f := fused.Analyzers[m]; f.phase != phaseFused {
				t.Errorf("%v unroll=%v: not fused", m, unroll)
			} else if r := f.Result(); !reflect.DeepEqual(r, got) {
				t.Errorf("%v unroll=%v: fused replay diverges from Step\ngot:  %+v\nwant: %+v", m, unroll, r, got)
			}
		}
	}
}
