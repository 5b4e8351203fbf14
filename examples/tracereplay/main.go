// This example demonstrates the trace-file workflow the original study
// used with pixie: record a benchmark's dynamic trace once, persist it,
// then replay the file through the limit analyzers as many times as
// needed without re-running the program.
//
//	go run ./examples/tracereplay
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"

	"ilplimit/internal/asm"
	"ilplimit/internal/bench"
	"ilplimit/internal/limits"
	"ilplimit/internal/minic"
	"ilplimit/internal/predict"
	"ilplimit/internal/trace"
	"ilplimit/internal/vm"
)

func main() {
	// Compile a small benchmark.
	b, err := bench.ByName("ccom")
	if err != nil {
		log.Fatal(err)
	}
	asmText, err := minic.Compile(b.Source(1))
	if err != nil {
		log.Fatal(err)
	}
	prog, err := asm.Assemble(asmText)
	if err != nil {
		log.Fatal(err)
	}

	// Record: one execution, profiling branches and writing the trace.
	var file bytes.Buffer
	w, err := trace.NewWriter(&file)
	if err != nil {
		log.Fatal(err)
	}
	machine := vm.NewSized(prog, 1<<20)
	defer machine.Release()
	prof := predict.NewProfile(prog)
	err = machine.Run(func(ev vm.Event) {
		prof.Record(ev)
		if err := w.Write(ev); err != nil {
			log.Fatal(err)
		}
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := w.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recorded %d events (%d bytes, %.2f bytes/event)\n",
		w.Count(), file.Len(), float64(file.Len())/float64(w.Count()))

	// Replay: feed the persisted trace straight into the analyzers.
	st, err := limits.NewStatic(prog, prof.Predictor())
	if err != nil {
		log.Fatal(err)
	}
	group := limits.NewGroup(st, len(machine.Mem), limits.AllModels(), true)
	var n int64
	replayFile := func(_ context.Context, visit func(vm.Event)) error {
		var err error
		n, err = trace.Visit(bytes.NewReader(file.Bytes()), visit)
		return err
	}
	if err := limits.ReplayWith(context.Background(), limits.ReplayOptions{}, replayFile, group.Analyzers...); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("replayed %d events\n\n", n)
	fmt.Printf("%-10s %12s\n", "model", "parallelism")
	for _, r := range group.Results() {
		fmt.Printf("%-10s %12.2f\n", r.Model, r.Parallelism())
	}
}
