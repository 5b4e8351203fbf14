// Package vm interprets assembled programs and streams a dynamic
// instruction trace.  It plays the role that the MIPS pixie tool played in
// the paper: each retired instruction is reported with its static index,
// its effective memory address (for loads and stores) and its branch
// outcome (for conditional branches and computed jumps).
//
// Run drives the whole trace through a visitor callback; RunContext adds
// cooperative cancellation, checked every CheckInterval retired
// instructions so the dispatch loop stays branch-light.  The same
// checkpoint hosts the two optional observation points: StepHook
// (deterministic fault injection, internal/faultinject) and Metrics
// (run-level telemetry, internal/telemetry).  Both are nil in production
// runs and cost one nil check.
//
// The memory image costs only the pages a program touches.  On unix
// NewSized maps it outside the Go heap, so the kernel zero-fills a page
// on first touch; stores mark their 4 KiB page in a dirty bitmap, and
// Reset clears just those pages.  Release unmaps the image when its
// owner is done (a finalizer does it for a VM dropped without Release),
// and Mem is valid until then.  MemWords is the sizing rule NewSized
// applies, for tables that must cover the same memory.
//
// A VM is deterministic: the same program always retires the same event
// sequence, which is what lets the serial and parallel analysis paths
// (internal/limits) be compared bit for bit.
package vm
