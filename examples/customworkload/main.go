// This example shows how to study a workload of your own: write it in
// mini-C, run the full pipeline, and inspect how branch prediction quality
// interacts with the speculative machine models.  It compares the same
// program under three predictors: the paper's profile-based upper bound, a
// pessimal predictor (every branch predicted wrong), and static
// backward-taken/forward-not-taken (BTFN) prediction.
//
//	go run ./examples/customworkload
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

// A histogram workload: data-dependent branching on input values.
const workload = `
int data[4096];
int histo[16];
int main() {
	int i, v, x;
	x = 12345;
	for (i = 0; i < 4096; i++) {
		x = x * 1103515245 + 12345;
		v = (x >> 16) & 15;
		data[i] = v;
	}
	for (i = 0; i < 4096; i++) {
		v = data[i];
		if (v < 8) {
			if (v < 4) histo[v]++;
			else histo[v] += 2;
		} else {
			histo[v] += 3;
		}
	}
	v = 0;
	for (i = 0; i < 16; i++) v += histo[i];
	print(v);
	return 0;
}
`

func main() {
	asmText, err := minic.Compile(workload)
	if err != nil {
		log.Fatal(err)
	}
	prog, err := asm.Assemble(asmText)
	if err != nil {
		log.Fatal(err)
	}
	machine := vm.NewSized(prog, 1<<16)

	// Profile-based predictions (the paper's method).
	prof := predict.NewProfile(prog)
	if err := machine.Run(prof.Record); err != nil {
		log.Fatal(err)
	}
	profiled := prof.Predictor()

	// Pessimal: predict the opposite of the profile majority.
	worst := map[int]bool{}
	// BTFN: backward branches taken, forward not taken.
	btfn := map[int]bool{}
	for i := range prog.Instrs {
		in := &prog.Instrs[i]
		if in.Op.IsCondBranch() {
			worst[i] = !profiled.PredictsTaken(i)
			btfn[i] = in.Target <= i
		}
	}

	predictors := []struct {
		name string
		p    *predict.Predictor
	}{
		{"profile (paper)", profiled},
		{"BTFN", predict.NewStaticPredictor(prog, btfn)},
		{"pessimal", predict.NewStaticPredictor(prog, worst)},
	}

	specModels := []limits.Model{limits.SP, limits.SPCD, limits.SPCDMF}
	fmt.Printf("%-16s", "predictor")
	for _, m := range specModels {
		fmt.Printf(" %10s", m)
	}
	fmt.Println()
	for _, pr := range predictors {
		st, err := limits.NewStatic(prog, pr.p)
		if err != nil {
			log.Fatal(err)
		}
		machine.Reset()
		group := limits.NewGroup(st, len(machine.Mem), specModels, true)
		err = limits.ReplayWith(context.Background(), limits.ReplayOptions{}, machine.RunContext, group.Analyzers...)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-16s", pr.name)
		for _, r := range group.Results() {
			fmt.Printf(" %10.2f", r.Parallelism())
		}
		fmt.Println()
	}
	fmt.Println("\nSpeculative machines degrade gracefully toward the CD machines as")
	fmt.Println("prediction quality falls; with a pessimal predictor SP approaches BASE.")
}
