// This example reconstructs the worked example of the paper's Figures 2
// and 3: a small flow graph — a loop whose body chooses between two arms,
// followed by code that is control independent of the whole loop — traced
// and scheduled under each abstract machine model.  The program has no
// data dependences between its "work" instructions, so every difference in
// the schedules below comes purely from how each machine handles control
// flow, exactly as in the paper's illustration.
//
//	go run ./examples/paperfigure3
package main

import (
	"fmt"
	"log"
	"strings"

	"ilplimit/internal/asm"
	"ilplimit/internal/limits"
	"ilplimit/internal/predict"
	"ilplimit/internal/vm"
)

// The flow graph (paper Figure 2 analog).  Node numbers comment each
// instruction; bold-arc behaviour (the likely direction) is encoded in the
// forced predictions below, and the middle iteration mispredicts node 2.
const src = `
.data
cond: .word 1 0 1        # if-condition per iteration: arm A, arm B, arm A
.proc main
	li   $s0, 0          # n0: i = 0 (loop counter, removed by unrolling? no: kept — see predictions)
loop:
	la   $t0, cond
	add  $t0, $t0, $s0
	lw   $t1, 0($t0)     # n1: load this iteration's condition
	beqz $t1, armB       # n2: the if branch (mispredicts on iteration 2)
	li   $t2, 3          # n3: then arm
	j    join
armB:
	li   $t3, 4          # n4: else arm
join:
	addi $s0, $s0, 1     # n5a: i++
	li   $t4, 3
	blt  $s0, $t4, loop  # n5b: loop branch (predicted taken)
	li   $t5, 6          # n6: control independent of the loop
	li   $t6, 7          # n7: control independent of the loop
	halt
.endproc
`

func main() {
	prog, err := asm.Assemble(src)
	if err != nil {
		log.Fatal(err)
	}
	// Force the paper's "likely path": the if-branch predicted not taken
	// (arm A), the loop branch predicted taken.  Iteration 2 takes arm B,
	// so its if-branch mispredicts; the final loop exit also mispredicts.
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
	pred := predict.NewStaticPredictor(prog, take)
	st, err := limits.NewStatic(prog, pred)
	if err != nil {
		log.Fatal(err)
	}

	models := limits.AllModels()
	// Schedule under every model, recording each instruction's cycle.
	type sched struct {
		idx   int32
		cycle int64
	}
	schedules := make([][]sched, len(models))
	var traceIdx []int32
	for mi, m := range models {
		machine := vm.NewSized(prog, 1<<12)
		a := limits.NewAnalyzer(st, m, false, len(machine.Mem))
		mi := mi
		a.OnSchedule = func(idx int32, cycle int64) {
			schedules[mi] = append(schedules[mi], sched{idx, cycle})
		}
		if err := machine.Run(func(ev vm.Event) { a.Step(ev) }); err != nil {
			log.Fatal(err)
		}
		machine.Release()
		if mi == 0 {
			for _, s := range schedules[0] {
				traceIdx = append(traceIdx, s.idx)
			}
		}
		r := a.Result()
		fmt.Printf("%-9s: %2d instructions in %2d cycles  (parallelism %.2f)\n",
			m, r.Instructions, r.Cycles, r.Parallelism())
	}

	// Print the schedule table: one row per dynamic instruction.
	fmt.Printf("\n%-28s", "dynamic instruction")
	for _, m := range models {
		fmt.Printf(" %9s", m)
	}
	fmt.Println()
	fmt.Println(strings.Repeat("-", 28+10*len(models)))
	for row := range traceIdx {
		in := &prog.Instrs[traceIdx[row]]
		fmt.Printf("%-28s", fmt.Sprintf("%3d: %s", traceIdx[row], truncate(in.String(), 22)))
		for mi := range models {
			fmt.Printf(" %9d", schedules[mi][row].cycle)
		}
		fmt.Println()
	}
	fmt.Println("\nRead a column top to bottom to see one machine's schedule.")
	fmt.Println("BASE serializes on every branch; CD frees the loop-independent tail;")
	fmt.Println("the MF machines overlap branches; SP stalls only at mispredictions;")
	fmt.Println("ORACLE is limited by data dependences alone.")
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-1] + "…"
}
