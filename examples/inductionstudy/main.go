// This example reproduces the paper's §5.4 discussion in miniature: the
// effect of perfect loop unrolling on each machine model.  It analyzes a
// doubly nested loop (a small dense kernel with data-independent control
// flow) and a pointer-chasing loop (data-dependent control flow), showing
// that unrolling transforms the first but barely affects the second — the
// paper's distinction between matrix300/tomcatv and the non-numeric codes.
//
//	go run ./examples/inductionstudy
package main

import (
	"context"
	"fmt"
	"log"

	"ilplimit/internal/asm"
	"ilplimit/internal/limits"
	"ilplimit/internal/minic"
	"ilplimit/internal/predict"
	"ilplimit/internal/vm"
)

const denseKernel = `
int a[32][32];
int main() {
	int i, j, s;
	for (i = 0; i < 32; i++)
		for (j = 0; j < 32; j++)
			a[i][j] = i * 32 + j;
	s = 0;
	for (i = 0; i < 32; i++)
		for (j = 0; j < 32; j++)
			s += a[j][i];
	print(s);
	return 0;
}
`

const pointerChase = `
int next[1024];
int val[1024];
int main() {
	int i, p, s, rounds;
	for (i = 0; i < 1024; i++) {
		next[i] = (i + 389) & 1023;   // a full 1024-cycle permutation
		val[i] = i * 3 & 63;
	}
	s = 0;
	p = 13;
	rounds = 0;
	// The loop exit depends on loaded data: unrolling cannot remove it,
	// and the p = next[p] chain serializes every model.
	while (p != 13 || rounds == 0) {
		s += val[p];
		p = next[p];
		rounds++;
	}
	print(s);
	print(rounds);
	return 0;
}
`

func analyze(name, src string) {
	asmText, err := minic.Compile(src)
	if err != nil {
		log.Fatal(err)
	}
	prog, err := asm.Assemble(asmText)
	if err != nil {
		log.Fatal(err)
	}
	machine := vm.NewSized(prog, 1<<16)
	defer machine.Release()
	prof := predict.NewProfile(prog)
	if err := machine.Run(prof.Record); err != nil {
		log.Fatal(err)
	}
	st, err := limits.NewStatic(prog, prof.Predictor())
	if err != nil {
		log.Fatal(err)
	}
	machine.Reset()
	with := limits.NewGroup(st, len(machine.Mem), limits.AllModels(), true)
	without := limits.NewGroup(st, len(machine.Mem), limits.AllModels(), false)
	all := append(with.Analyzers, without.Analyzers...)
	if err := limits.ReplayWith(context.Background(), limits.ReplayOptions{}, machine.RunContext, all...); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%s\n", name)
	fmt.Printf("  %-9s %12s %12s %9s\n", "model", "plain", "unrolled", "change")
	wr, wor := with.Results(), without.Results()
	for i := range wr {
		plain, unrolled := wor[i].Parallelism(), wr[i].Parallelism()
		change := 0.0
		if plain > 0 {
			change = 100 * (unrolled - plain) / plain
		}
		fmt.Printf("  %-9s %12.2f %12.2f %+8.0f%%\n", wr[i].Model, plain, unrolled, change)
	}
	fmt.Println()
}

func main() {
	fmt.Println("Effect of perfect loop unrolling (paper §5.4, Table 4):")
	fmt.Println()
	analyze("dense kernel (data-independent control flow, like matrix300):", denseKernel)
	analyze("pointer chase (data-dependent control flow, like the non-numeric codes):", pointerChase)
}
