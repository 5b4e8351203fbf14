// Command tracegen produces, inspects and summarizes dynamic instruction
// traces — the pixie role of the original study's workflow, with traces
// persisted in the internal/trace binary format.  It also reads the
// annotated trace store's v3 chunk format: -in dumps .ilpc chunk files
// (detected by magic), and -verify audits one end to end.  To populate
// a store, run ilplimit -trace-cache DIR (optionally with -bench NAMES).
//
// Usage:
//
//	tracegen -bench espresso -o espresso.trc     # record a benchmark trace
//	tracegen prog.c -o prog.trc                  # record a mini-C program
//	tracegen -dump 20 -in prog.trc -sym prog.c   # print the first 20 events
//	tracegen -bench awk -summary                 # per-opcode trace summary
//	tracegen -dump 20 -in DIR/espresso-….ilpc    # dump a v3 chunk file
//	tracegen -verify DIR/espresso-….ilpc         # audit frames, CRCs, footer
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"ilplimit/internal/asm"
	"ilplimit/internal/bench"
	"ilplimit/internal/iofault"
	"ilplimit/internal/isa"
	"ilplimit/internal/limits"
	"ilplimit/internal/minic"
	"ilplimit/internal/trace"
	"ilplimit/internal/vm"
)

func main() {
	var (
		benchName = flag.String("bench", "", "trace a benchmark suite program")
		scale     = flag.Int("scale", 1, "benchmark scale factor")
		out       = flag.String("o", "", "write the trace to this file")
		in        = flag.String("in", "", "read an existing trace instead of recording")
		sym       = flag.String("sym", "", "mini-C source for disassembling -in dumps")
		dump      = flag.Int("dump", 0, "print the first N events as text")
		summary   = flag.Bool("summary", false, "print per-opcode dynamic counts")
		verify    = flag.String("verify", "", "audit a v3 chunk file: header, every frame CRC, footer; non-zero exit on any damage")
	)
	flag.Parse()

	if *verify != "" {
		if err := verifyChunkFile(*verify); err != nil {
			fail(err)
		}
		return
	}
	if *in != "" {
		if err := dumpFile(*in, *sym, *dump); err != nil {
			fail(err)
		}
		return
	}

	var src string
	switch {
	case *benchName != "":
		b, err := bench.ByName(*benchName)
		if err != nil {
			fail(err)
		}
		src = b.Source(*scale)
	case flag.NArg() == 1:
		data, err := os.ReadFile(flag.Arg(0))
		if err != nil {
			fail(err)
		}
		src = string(data)
	default:
		fail(fmt.Errorf("usage: tracegen (-bench NAME | FILE) [-o OUT] [-dump N] [-summary]"))
	}

	asmText, err := minic.Compile(src)
	if err != nil {
		fail(err)
	}
	prog, err := asm.Assemble(asmText)
	if err != nil {
		fail(err)
	}
	machine := vm.New(prog)
	defer machine.Release()
	machine.StepLimit = 1 << 34

	counts := make(map[isa.Op]int64)
	dumped := 0
	observe := func(ev vm.Event) {
		if *summary {
			counts[prog.Instrs[ev.Idx].Op]++
		}
		if dumped < *dump {
			printEvent(prog, ev)
			dumped++
		}
	}
	wrote := false
	if *out != "" {
		// WriteFile stages into *.tmp, fsyncs, renames, and fsyncs the
		// directory, so a crash mid-record never leaves a torn trace
		// under the output name.
		n, err := trace.WriteFile(iofault.OS(), *out, func(w *trace.Writer) error {
			var werr error
			rerr := machine.Run(func(ev vm.Event) {
				if werr == nil {
					werr = w.Write(ev)
				}
				observe(ev)
			})
			if werr != nil {
				return werr
			}
			return rerr
		})
		if err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "tracegen: wrote %d events to %s\n", n, *out)
		wrote = true
	} else if err := machine.Run(observe); err != nil {
		fail(err)
	}
	if *summary {
		printSummary(counts, machine.Steps)
	}
	if !*summary && *dump == 0 && !wrote {
		fmt.Printf("traced %d instructions (%d static)\n", machine.Steps, len(prog.Instrs))
	}
}

// verifyChunkFile audits one v3 chunk file the way the store's reader
// does — strictly: a file that opens with any error (torn tail, flipped
// bit, wrong magic) fails the audit even if a salvageable frame prefix
// survives.
func verifyChunkFile(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	cf, err := trace.OpenChunkFile(data)
	if err != nil {
		if cf != nil {
			return fmt.Errorf("%s: %d of %d bytes salvageable (%d frames, %d events): %v",
				path, salvaged(cf), len(data), cf.NumFrames(), cf.Events(), err)
		}
		return fmt.Errorf("%s: %v", path, err)
	}
	var next, events int64
	for i := 0; i < cf.NumFrames(); i++ {
		base, addr, idx, flags := cf.Frame(i)
		if len(addr) != len(idx) || len(flags) != len(idx) {
			return fmt.Errorf("%s: frame %d: ragged lanes", path, i)
		}
		if i == 0 {
			next = base
		}
		if base != next {
			return fmt.Errorf("%s: frame %d: base %d, want %d (sequence gap)", path, i, base, next)
		}
		next += int64(len(idx))
		events += int64(len(idx))
	}
	if events != cf.Events() {
		return fmt.Errorf("%s: footer says %d events, frames hold %d", path, cf.Events(), events)
	}
	fmt.Printf("%s: ok\n  fingerprint: %s\n  meta: %d bytes\n  frames: %d\n  events: %d\n",
		path, cf.Fingerprint(), len(cf.Meta()), cf.NumFrames(), cf.Events())
	return nil
}

// salvaged estimates how many bytes of a damaged file's frame prefix
// remained usable (display only).
func salvaged(cf *trace.ChunkFile) int64 {
	return cf.Events() * 12
}

// chunkFlagNames maps the per-event annotation bits to mnemonics.
var chunkFlagNames = []struct {
	bit  uint32
	name string
}{
	{limits.FlagLeader, "leader"},
	{limits.FlagBranch, "branch"},
	{limits.FlagLoad, "load"},
	{limits.FlagStore, "store"},
	{limits.FlagCall, "call"},
	{limits.FlagReturn, "return"},
	{limits.FlagInline, "inline"},
	{limits.FlagUnroll, "unroll"},
	{limits.FlagTaken, "taken"},
}

// dumpChunkFile prints the first n annotated events of a v3 chunk file
// with flag mnemonics and per-lane misprediction bits.
func dumpChunkFile(path string, data []byte, prog *isa.Program, n int) error {
	cf, err := trace.OpenChunkFile(data)
	if err != nil {
		return fmt.Errorf("%s: %v", path, err)
	}
	dumped := 0
	for f := 0; f < cf.NumFrames() && (n == 0 || dumped < n); f++ {
		base, addr, idx, flags := cf.Frame(f)
		for i := range idx {
			if n != 0 && dumped >= n {
				break
			}
			line := fmt.Sprintf("%8d  idx=%-6d", base+int64(i), idx[i])
			if prog != nil && int(idx[i]) < len(prog.Instrs) {
				line += fmt.Sprintf("  %-28s", prog.Instrs[idx[i]].String())
			}
			if addr[i] != 0 {
				line += fmt.Sprintf("  addr=%d", addr[i])
			}
			for _, fn := range chunkFlagNames {
				if flags[i]&fn.bit != 0 {
					line += "  " + fn.name
				}
			}
			if m := flags[i] & limits.FlagMispredAll; m != 0 {
				line += fmt.Sprintf("  mispred=%#x", m>>16)
			}
			fmt.Println(line)
			dumped++
		}
	}
	fmt.Fprintf(os.Stderr, "tracegen: %d events in %d frames in %s\n", cf.Events(), cf.NumFrames(), path)
	return nil
}

func dumpFile(path, symSrc string, n int) error {
	var prog *isa.Program
	if symSrc != "" {
		data, err := os.ReadFile(symSrc)
		if err != nil {
			return err
		}
		asmText, err := minic.Compile(string(data))
		if err != nil {
			return err
		}
		if prog, err = asm.Assemble(asmText); err != nil {
			return err
		}
	}
	// A v3 chunk file announces itself by magic; everything else goes
	// through the v2 event-stream reader.
	if data, err := os.ReadFile(path); err == nil && trace.IsChunkFile(data) {
		return dumpChunkFile(path, data, prog, n)
	}
	dumped := 0
	total, err := trace.VisitFile(iofault.OS(), path, func(ev vm.Event) {
		if dumped < n || n == 0 {
			printEvent(prog, ev)
			dumped++
		}
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "tracegen: %d events in %s\n", total, path)
	return nil
}

func printEvent(p *isa.Program, ev vm.Event) {
	line := fmt.Sprintf("%8d  idx=%-6d", ev.Seq, ev.Idx)
	if p != nil && int(ev.Idx) < len(p.Instrs) {
		line += fmt.Sprintf("  %-28s", p.Instrs[ev.Idx].String())
	}
	if ev.Addr != 0 {
		line += fmt.Sprintf("  addr=%d", ev.Addr)
	}
	if ev.Taken {
		line += "  taken"
	}
	fmt.Println(line)
}

func printSummary(counts map[isa.Op]int64, total int64) {
	type row struct {
		op isa.Op
		n  int64
	}
	var rows []row
	for op, n := range counts {
		rows = append(rows, row{op, n})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].n > rows[j].n })
	fmt.Printf("%-8s %12s %8s\n", "opcode", "count", "share")
	for _, r := range rows {
		fmt.Printf("%-8s %12d %7.2f%%\n", r.op, r.n, 100*float64(r.n)/float64(total))
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "tracegen:", err)
	os.Exit(1)
}
