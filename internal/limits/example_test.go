package limits_test

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

// Example demonstrates the complete pipeline on a tiny program: compile,
// assemble, profile, and schedule the trace under three machine models.
func Example() {
	asmText, err := minic.Compile(`
int main() {
	int i, s;
	s = 0;
	for (i = 0; i < 8; i++) {
		if (i & 1) s += i;
	}
	print(s);
	return 0;
}
`)
	if err != nil {
		log.Fatal(err)
	}
	prog, err := asm.Assemble(asmText)
	if err != nil {
		log.Fatal(err)
	}

	machine := vm.NewSized(prog, 1<<14)
	prof := predict.NewProfile(prog)
	if err := machine.Run(prof.Record); err != nil {
		log.Fatal(err)
	}

	st, err := limits.NewStatic(prog, prof.Predictor())
	if err != nil {
		log.Fatal(err)
	}
	machine.Reset()
	group := limits.NewGroup(st, len(machine.Mem),
		[]limits.Model{limits.Base, limits.SPCDMF, limits.Oracle}, true)
	err = limits.ReplayWith(context.Background(), limits.ReplayOptions{}, machine.RunContext, group.Analyzers...)
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range group.Results() {
		fmt.Printf("%s: %d instructions\n", r.Model, r.Instructions)
	}
	fmt.Printf("program printed: %s", machine.Output())
	// Output:
	// BASE: 45 instructions
	// SP-CD-MF: 45 instructions
	// ORACLE: 45 instructions
	// program printed: 16
}
