// Command mcc is the mini-C compiler driver: it compiles a source file to
// textual assembly (the format internal/asm accepts), and can optionally
// assemble and run the result.
//
// Usage:
//
//	mcc prog.c                # assembly on stdout
//	mcc -run prog.c           # compile, assemble, execute; program output
//	mcc -bench espresso       # emit the generated source of a suite entry
//	mcc -bench awk -run       # run a suite benchmark directly
//	mcc -scale 4 -bench awk   # at a larger scale
package main

import (
	"flag"
	"fmt"
	"os"

	"ilplimit/internal/asm"
	"ilplimit/internal/bench"
	"ilplimit/internal/minic"
	"ilplimit/internal/vm"
)

func main() {
	var (
		run       = flag.Bool("run", false, "assemble and execute instead of printing assembly")
		benchName = flag.String("bench", "", "use a benchmark suite program instead of a file")
		scale     = flag.Int("scale", 1, "benchmark scale factor")
		source    = flag.Bool("source", false, "with -bench: print the generated mini-C source")
		stats     = flag.Bool("stats", false, "with -run: print executed instruction count to stderr")
		ifconvert = flag.Bool("ifconvert", false, "enable guarded-instruction if-conversion")
		ast       = flag.Bool("ast", false, "print the parsed AST instead of assembly")
	)
	flag.Parse()

	var src string
	switch {
	case *benchName != "":
		b, err := bench.ByName(*benchName)
		if err != nil {
			fail(err)
		}
		src = b.Source(*scale)
		if *source {
			fmt.Print(src)
			return
		}
	case flag.NArg() == 1:
		data, err := os.ReadFile(flag.Arg(0))
		if err != nil {
			fail(err)
		}
		src = string(data)
	default:
		fail(fmt.Errorf("usage: mcc [-run] [-stats] (FILE | -bench NAME [-source])"))
	}

	if *ast {
		prog, err := minic.Parse(src)
		if err != nil {
			fail(err)
		}
		fmt.Print(minic.DumpAST(prog))
		return
	}

	asmText, err := minic.CompileOpts(src, minic.Options{IfConvert: *ifconvert})
	if err != nil {
		fail(err)
	}
	if !*run {
		fmt.Print(asmText)
		return
	}
	prog, err := asm.Assemble(asmText)
	if err != nil {
		fail(err)
	}
	machine := vm.New(prog)
	defer machine.Release()
	machine.StepLimit = 1 << 34
	if err := machine.Run(nil); err != nil {
		fail(err)
	}
	fmt.Print(machine.Output())
	if *stats {
		fmt.Fprintf(os.Stderr, "executed %d instructions (%d static)\n",
			machine.Steps, len(prog.Instrs))
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "mcc:", err)
	os.Exit(1)
}
