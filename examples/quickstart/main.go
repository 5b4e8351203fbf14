// Quickstart: compile a small mini-C program, trace it, and measure the
// limits of parallelism under all seven abstract machine models of
// Lam & Wilson (ISCA 1992).
//
//	go run ./examples/quickstart
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

const program = `
int a[64];
int partition_sum(int n) {
	int i, s;
	s = 0;
	for (i = 0; i < n; i++) {
		if (a[i] & 1) s += a[i];
	}
	return s;
}
int main() {
	int i;
	for (i = 0; i < 64; i++) a[i] = i * 37 & 255;
	print(partition_sum(64));
	return 0;
}
`

func main() {
	// 1. Compile and assemble.
	asmText, err := minic.Compile(program)
	if err != nil {
		log.Fatal(err)
	}
	prog, err := asm.Assemble(asmText)
	if err != nil {
		log.Fatal(err)
	}

	// 2. Profile branch outcomes with the same input (the paper's static
	//    prediction upper bound).
	machine := vm.NewSized(prog, 1<<16)
	prof := predict.NewProfile(prog)
	if err := machine.Run(prof.Record); err != nil {
		log.Fatal(err)
	}

	// 3. Build the static analyses (CFGs, control dependence, induction
	//    variables) and schedule the trace under every model.
	st, err := limits.NewStatic(prog, prof.Predictor())
	if err != nil {
		log.Fatal(err)
	}
	machine.Reset()
	group := limits.NewGroup(st, len(machine.Mem), limits.AllModels(), true)
	err = limits.ReplayWith(context.Background(), limits.ReplayOptions{}, machine.RunContext, group.Analyzers...)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%-10s %14s %10s %12s\n", "model", "instructions", "cycles", "parallelism")
	for _, r := range group.Results() {
		fmt.Printf("%-10s %14d %10d %12.2f\n",
			r.Model, r.Instructions, r.Cycles, r.Parallelism())
	}
}
