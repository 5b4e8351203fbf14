package limits

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"ilplimit/internal/asm"
	"ilplimit/internal/predict"
	"ilplimit/internal/vm"
)

// Metamorphic checks: a transformation of the program that cannot
// change any dependence must leave every model's result unchanged.

// renamePool is every integer register genProgram may use or be renamed
// onto; regRef matches a reference to one of them in assembly text.
var (
	renamePool = []string{
		"t0", "t1", "t2", "t3", "t4", "t5", "t6", "t7", "t8", "t9",
		"s0", "s1", "s2", "s3", "s4", "s5", "s6", "s7",
		"a0", "a1", "a2", "a3", "v0", "v1",
	}
	regRef = regexp.MustCompile(`\$(t[0-9]|s[0-7]|a[0-3]|v[01])\b`)
)

// allResults assembles and profiles src, then returns its 14 results —
// every model, unrolled then plain — through one fused replay and
// through Step.
func allResults(t *testing.T, src string) (fused, stepped []Result) {
	t.Helper()
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatalf("%v\n%s", err, src)
	}
	machine := vm.NewSized(p, 1<<12)
	defer machine.Release()
	machine.StepLimit = 5000
	prof := predict.NewProfile(p)
	var events []vm.Event
	if err := machine.Run(func(ev vm.Event) { prof.Record(ev); events = append(events, ev) }); err != nil {
		t.Fatalf("%v\n%s", err, src)
	}
	st, err := NewStatic(p, prof.Predictor())
	if err != nil {
		t.Fatal(err)
	}
	memWords := len(machine.Mem)
	run := func(replay func(all []*Analyzer)) []Result {
		unrolled, plain := NewGroup(st, memWords, AllModels(), true), NewGroup(st, memWords, AllModels(), false)
		replay(append(append([]*Analyzer(nil), unrolled.Analyzers...), plain.Analyzers...))
		return append(unrolled.Results(), plain.Results()...)
	}
	fused = run(func(all []*Analyzer) {
		if err := ReplayChunks(context.Background(), chunkify(st, events, memWords), all...); err != nil {
			t.Fatal(err)
		}
		for _, a := range all {
			if a.phase != phaseFused {
				t.Fatalf("%s: not fused", a.Model())
			}
		}
	})
	stepped = run(func(all []*Analyzer) {
		for _, ev := range events {
			for _, a := range all {
				a.Step(ev)
			}
		}
	})
	return fused, stepped
}

// TestRegisterRenamingInvariance renames the integer registers of
// generated programs one to one onto t0–t9, s0–s7, a0–a3 and v0–v1.
// Every dependence survives the renaming, so all 14 results must stay
// identical, through a fused replay and through Step.
func TestRegisterRenamingInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(20261019))
	for trial := 0; trial < 200; trial++ {
		src := genProgram(rng)
		perm := rng.Perm(len(renamePool))
		renamed := regRef.ReplaceAllStringFunc(src, func(ref string) string {
			for i, r := range renamePool {
				if "$"+r == ref {
					return "$" + renamePool[perm[i]]
				}
			}
			panic("unmatched register " + ref)
		})
		wantFused, wantStepped := allResults(t, src)
		gotFused, gotStepped := allResults(t, renamed)
		if !reflect.DeepEqual(gotFused, wantFused) {
			t.Fatalf("trial %d: renaming changed the fused results\n%+v\n%+v\n%s\n%s", trial, wantFused, gotFused, src, renamed)
		}
		if !reflect.DeepEqual(gotStepped, wantStepped) {
			t.Fatalf("trial %d: renaming changed the Step results\n%+v\n%+v\n%s\n%s", trial, wantStepped, gotStepped, src, renamed)
		}
	}
}

// deadProc is a never-called procedure of n filler instructions and
// three blocks, placed before main to shift every static instruction
// index and global block id of the program after it.
func deadProc(n int) string {
	var b strings.Builder
	b.WriteString(".proc dead\n\tli $t0, 3\nDead0:\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "\taddi $t%d, $t0, %d\n", i%4, i)
	}
	b.WriteString("\taddi $t0, $t0, -1\n\tbnez $t0, Dead0\n\tbeq $t1, $t2, Dead1\n\tadd $t3, $t1, $t2\nDead1:\n\tret\n.endproc\n")
	return b.String()
}

// TestDeadProcedureInvariance inserts a never-called procedure before
// main in generated programs.  It shifts every static instruction index
// and global block id, but no executed instruction changes, so all 14
// results must stay identical, through a fused replay and through Step.
func TestDeadProcedureInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(20261020))
	for trial := 0; trial < 200; trial++ {
		src := genProgram(rng)
		shifted := strings.Replace(src, ".proc main", deadProc(1+rng.Intn(8))+".proc main", 1)
		if p, err := asm.Assemble(shifted); err != nil || p.Entry == 0 {
			t.Fatalf("trial %d: main did not move (%v)\n%s", trial, err, shifted)
		}
		wantFused, wantStepped := allResults(t, src)
		gotFused, gotStepped := allResults(t, shifted)
		if !reflect.DeepEqual(gotFused, wantFused) {
			t.Fatalf("trial %d: a dead procedure changed the fused results\n%+v\n%+v\n%s", trial, wantFused, gotFused, shifted)
		}
		if !reflect.DeepEqual(gotStepped, wantStepped) {
			t.Fatalf("trial %d: a dead procedure changed the Step results\n%+v\n%+v\n%s", trial, wantStepped, gotStepped, shifted)
		}
	}
}
