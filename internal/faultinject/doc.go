// Package faultinject builds deterministic fault plans for the pipeline's
// resilience tests: trap the VM at a chosen step, panic a chosen analyzer
// worker at a chosen event, corrupt a published replay chunk, stall a
// consumer long enough to exercise the broadcast ring's flow control (or
// the stall watchdog's detach path), slow a consumer steadily below the
// watchdog deadline, or starve one analyzer of trace events to seed a
// model-ordering invariant violation.
//
// A Plan is pure data; it acts only when wired into the two test-only
// hooks the pipeline exposes — vm.VM.StepHook (via Plan.StepHook) and the
// replay's per-chunk limits.ReplayHooks (via Plan.Hooks, installed as
// limits.ReplayOptions.Hooks of a limits.ReplayWith call, whose ring
// every live replay drains, a lone analyzer's included).  A replay
// with consumer hooks gives every analyzer a consumer of its own,
// which still steps through a fused set, so a faulted replay runs the
// production hot loop.  Production code never constructs a Plan, so
// the hot paths carry at most a per-chunk nil check.  Every fault site
// records whether it actually fired (Plan.Fired), letting tests assert
// that a recovery path was exercised rather than skipped.
package faultinject
