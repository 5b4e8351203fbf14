package vm

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"strings"
	"time"

	"ilplimit/internal/isa"
	"ilplimit/internal/telemetry"
)

// Event describes one retired instruction.  Field order groups the two
// 8-byte words first so the struct packs into 24 bytes — events are
// batched into multi-thousand-entry chunks by the replay ring, where a
// third of the footprint is measurable cache traffic.
type Event struct {
	// Seq is the zero-based position of the instruction in the dynamic
	// trace (stable across replays of the same program).
	Seq int64
	// Addr is the effective word address for loads and stores, and the
	// resolved target instruction index for computed jumps.
	Addr int64
	// Idx is the static instruction index into the program.
	Idx int32
	// Taken reports the outcome of a conditional branch.
	Taken bool
}

// DefaultMemWords sizes the VM memory: 4M words (32 MiB) of address
// space.  The image is mapped lazily (see NewSized), so a run costs only
// the pages it touches.  The data segment starts at isa.DataBase and the
// stack grows down from the top of memory.
const DefaultMemWords = 1 << 22

// pageShift sets the granule of the dirty-page map: 512 words (4 KiB),
// the common OS page, so Reset clears exactly what a run touched.
const pageShift = 9

// DefaultStepLimit bounds a run to guard against runaway programs.
const DefaultStepLimit = 1 << 30

// ErrStepLimit is returned when a run exceeds its step limit.
var ErrStepLimit = errors.New("vm: step limit exceeded")

// ErrCanceled is returned (wrapped, with the step count and the context's
// own error) when a run is aborted by its context.  The VM's architectural
// state is whatever the last retired instruction left behind — the same
// contract as a trap — so a canceled machine can be Reset and re-run.
var ErrCanceled = errors.New("vm: run canceled")

// CheckInterval is how many retired instructions pass between
// cancellation/hook checks in RunContext.  Cancellation latency is
// therefore bounded by CheckInterval instruction dispatches.
const CheckInterval = 4096

// VM executes one program.  A VM is single-use per Run but Reset restores
// the initial state for another run of the same program.
type VM struct {
	prog *isa.Program
	R    [32]int64
	F    [32]float64
	// Mem is the memory image, MemWords(prog, words) words long.  It is
	// valid until Release; a VM must not be run or Reset after it.
	Mem []int64
	// dirty holds one bit per 1<<pageShift-word page of Mem that a store
	// wrote since the last Reset.  The data segment needs no bit: load
	// copies it afresh.
	dirty []uint64
	// img owns a mapped image; nil for a heap image or once released.
	img *mapping
	pc  int
	// Steps counts retired instructions of the last run.
	Steps int64
	// StepLimit bounds the run; 0 means DefaultStepLimit.
	StepLimit int64
	// StepHook, when non-nil, runs at every cancellation check (every
	// CheckInterval retired instructions); a non-nil error aborts the run
	// with that error wrapped.  It exists for deterministic fault
	// injection (internal/faultinject) and stays nil in production runs.
	StepHook func(steps int64) error
	// Metrics, when non-nil, receives per-run telemetry: "instructions"
	// and "run_ns" counters (their ratio is instructions/sec), "runs",
	// and — when StepHook is set — "hook_ns", the time spent inside the
	// hook.  The VM registers bare names; owners scope them with
	// Registry.WithPrefix (the harness uses "vm.profile." and
	// "vm.analysis.").  All recording happens at run boundaries and at
	// the existing CheckInterval checkpoints, so the per-instruction
	// dispatch loop is untouched; a nil Metrics costs one nil check per
	// run.
	Metrics *telemetry.Registry
	out     strings.Builder
}

// New creates a VM for the program with default memory.
func New(p *isa.Program) *VM { return NewSized(p, DefaultMemWords) }

// MemWords is the memory size, in words, that NewSized gives a VM for p
// when asked for words: words, raised to fit the data segment.  Code
// that sizes dependence tables without a VM at hand must size them by
// this rule, so that every address the program can touch fits.
func MemWords(p *isa.Program, words int) int {
	return max(words, int(isa.DataBase)+len(p.Data)+1)
}

// NewSized creates a VM with MemWords(p, words) words of memory.  The
// stack pointer starts at the top of memory, so the size bounds every
// address the program can touch.
//
// On unix the image is anonymous memory mapped outside the Go heap: the
// kernel zero-fills a page on first touch, so untouched pages cost
// neither time nor resident memory, and the garbage collector never
// counts the image.  Elsewhere it is an ordinary slice.  Either way the
// owner should call Release when done; a finalizer unmaps the image of a
// VM that becomes unreachable first.
func NewSized(p *isa.Program, words int) *VM {
	words = MemWords(p, words)
	vm := &VM{prog: p, dirty: make([]uint64, (words-1)>>(pageShift+6)+1)}
	if vm.Mem, vm.img = mapImage(words); vm.img == nil {
		vm.Mem = make([]int64, words)
	}
	vm.load()
	return vm
}

// Reset restores registers, memory and the program counter to their initial
// state so the same program can be re-run (e.g. a profiling pass followed by
// an analysis pass).  It clears only the pages stored to since the last
// Reset.
func (vm *VM) Reset() {
	for i, w := range vm.dirty {
		for ; w != 0; w &= w - 1 {
			lo := (i<<6 + bits.TrailingZeros64(w)) << pageShift
			clear(vm.Mem[lo:min(lo+1<<pageShift, len(vm.Mem))])
		}
		vm.dirty[i] = 0
	}
	vm.load()
}

// load sets up the initial state over a zero image: registers, the data
// segment and the program counter.
func (vm *VM) load() {
	vm.R = [32]int64{}
	vm.F = [32]float64{}
	copy(vm.Mem[isa.DataBase:], vm.prog.Data)
	vm.R[isa.RSP] = int64(len(vm.Mem))
	vm.R[isa.RFP] = int64(len(vm.Mem))
	vm.pc = vm.prog.Entry
	vm.Steps = 0
	vm.out.Reset()
}

// Release frees the memory image: a mapped image is unmapped, a heap
// image dropped.  Mem is nil afterwards, and the VM must not be run or
// Reset again.  A second call does nothing.
func (vm *VM) Release() {
	if vm.img != nil {
		vm.img.unmap()
		vm.img = nil
	}
	vm.Mem, vm.dirty = nil, nil
}

// Output returns everything printed by PRINTI/PRINTF/PRINTC during the last
// run.
func (vm *VM) Output() string { return vm.out.String() }

func (vm *VM) trap(format string, args ...interface{}) error {
	return fmt.Errorf("vm trap at pc=%d (%s): %s",
		vm.pc, vm.prog.Instrs[vm.pc].String(), fmt.Sprintf(format, args...))
}

// Run executes the program until HALT, calling visit for every retired
// instruction (visit may be nil).  It returns an error for traps (bad
// address, division by zero, bad pc) or if the step limit is exceeded.
func (vm *VM) Run(visit func(Event)) error {
	return vm.RunContext(context.Background(), visit)
}

// RunContext is Run with a cancellation point every CheckInterval retired
// instructions: once ctx is done the run aborts with an error wrapping
// ErrCanceled, and a non-nil StepHook error aborts with that error
// wrapped.  Its signature satisfies limits.RunFunc, so a machine plugs
// directly into limits.ReplayWith.
func (vm *VM) RunContext(ctx context.Context, visit func(Event)) error {
	limit := vm.StepLimit
	if limit == 0 {
		limit = DefaultStepLimit
	}
	var hookNs *telemetry.Counter
	if vm.Metrics != nil {
		hookNs = vm.Metrics.Counter("hook_ns")
		vm.Metrics.Counter("runs").Inc()
		start, startSteps := time.Now(), vm.Steps
		defer func() {
			vm.Metrics.Counter("run_ns").AddDuration(time.Since(start))
			vm.Metrics.Counter("instructions").Add(vm.Steps - startSteps)
		}()
	}
	done := ctx.Done()
	hook := vm.StepHook
	if done != nil {
		select {
		case <-done:
			return fmt.Errorf("%w before step %d: %v", ErrCanceled, vm.Steps, ctx.Err())
		default:
		}
	}
	nextCheck := int64(math.MaxInt64)
	if done != nil || hook != nil {
		nextCheck = vm.Steps + CheckInterval
	}
	instrs := vm.prog.Instrs
	mem, dirty := vm.Mem, vm.dirty
	memLen := int64(len(mem))
	for {
		if vm.pc < 0 || vm.pc >= len(instrs) {
			return fmt.Errorf("vm: pc %d out of range", vm.pc)
		}
		in := &instrs[vm.pc]
		ev := Event{Seq: vm.Steps, Idx: int32(vm.pc)}
		next := vm.pc + 1
		switch in.Op {
		case isa.NOP:
		case isa.ADD:
			vm.setR(in.Rd, vm.R[in.Rs]+vm.R[in.Rt])
		case isa.SUB:
			vm.setR(in.Rd, vm.R[in.Rs]-vm.R[in.Rt])
		case isa.MUL:
			vm.setR(in.Rd, vm.R[in.Rs]*vm.R[in.Rt])
		case isa.DIV:
			if vm.R[in.Rt] == 0 {
				return vm.trap("integer division by zero")
			}
			vm.setR(in.Rd, vm.R[in.Rs]/vm.R[in.Rt])
		case isa.REM:
			if vm.R[in.Rt] == 0 {
				return vm.trap("integer remainder by zero")
			}
			vm.setR(in.Rd, vm.R[in.Rs]%vm.R[in.Rt])
		case isa.AND:
			vm.setR(in.Rd, vm.R[in.Rs]&vm.R[in.Rt])
		case isa.OR:
			vm.setR(in.Rd, vm.R[in.Rs]|vm.R[in.Rt])
		case isa.XOR:
			vm.setR(in.Rd, vm.R[in.Rs]^vm.R[in.Rt])
		case isa.NOR:
			vm.setR(in.Rd, ^(vm.R[in.Rs] | vm.R[in.Rt]))
		case isa.SLL:
			vm.setR(in.Rd, vm.R[in.Rs]<<uint(vm.R[in.Rt]&63))
		case isa.SRL:
			vm.setR(in.Rd, int64(uint64(vm.R[in.Rs])>>uint(vm.R[in.Rt]&63)))
		case isa.SRA:
			vm.setR(in.Rd, vm.R[in.Rs]>>uint(vm.R[in.Rt]&63))
		case isa.SLT:
			vm.setR(in.Rd, b2i(vm.R[in.Rs] < vm.R[in.Rt]))
		case isa.SLE:
			vm.setR(in.Rd, b2i(vm.R[in.Rs] <= vm.R[in.Rt]))
		case isa.SEQ:
			vm.setR(in.Rd, b2i(vm.R[in.Rs] == vm.R[in.Rt]))
		case isa.SNE:
			vm.setR(in.Rd, b2i(vm.R[in.Rs] != vm.R[in.Rt]))
		case isa.ADDI:
			vm.setR(in.Rd, vm.R[in.Rs]+in.Imm)
		case isa.MULI:
			vm.setR(in.Rd, vm.R[in.Rs]*in.Imm)
		case isa.ANDI:
			vm.setR(in.Rd, vm.R[in.Rs]&in.Imm)
		case isa.ORI:
			vm.setR(in.Rd, vm.R[in.Rs]|in.Imm)
		case isa.XORI:
			vm.setR(in.Rd, vm.R[in.Rs]^in.Imm)
		case isa.SLLI:
			vm.setR(in.Rd, vm.R[in.Rs]<<uint(in.Imm&63))
		case isa.SRLI:
			vm.setR(in.Rd, int64(uint64(vm.R[in.Rs])>>uint(in.Imm&63)))
		case isa.SRAI:
			vm.setR(in.Rd, vm.R[in.Rs]>>uint(in.Imm&63))
		case isa.SLTI:
			vm.setR(in.Rd, b2i(vm.R[in.Rs] < in.Imm))
		case isa.LI, isa.LA:
			vm.setR(in.Rd, in.Imm)
		case isa.MOV:
			vm.setR(in.Rd, vm.R[in.Rs])
		case isa.LW:
			a := vm.R[in.Rs] + in.Imm
			if a < 0 || a >= memLen {
				return vm.trap("load address %d out of range", a)
			}
			vm.setR(in.Rd, mem[a])
			ev.Addr = a
		case isa.SW:
			a := vm.R[in.Rs] + in.Imm
			if a < 0 || a >= memLen {
				return vm.trap("store address %d out of range", a)
			}
			mem[a] = vm.R[in.Rt]
			dirty[a>>(pageShift+6)] |= 1 << (a >> pageShift & 63)
			ev.Addr = a
		case isa.FLW:
			a := vm.R[in.Rs] + in.Imm
			if a < 0 || a >= memLen {
				return vm.trap("fp load address %d out of range", a)
			}
			vm.F[in.Rd-isa.F0] = math.Float64frombits(uint64(mem[a]))
			ev.Addr = a
		case isa.FSW:
			a := vm.R[in.Rs] + in.Imm
			if a < 0 || a >= memLen {
				return vm.trap("fp store address %d out of range", a)
			}
			mem[a] = int64(math.Float64bits(vm.F[in.Rt-isa.F0]))
			dirty[a>>(pageShift+6)] |= 1 << (a >> pageShift & 63)
			ev.Addr = a
		case isa.FADD:
			vm.F[in.Rd-isa.F0] = vm.F[in.Rs-isa.F0] + vm.F[in.Rt-isa.F0]
		case isa.FSUB:
			vm.F[in.Rd-isa.F0] = vm.F[in.Rs-isa.F0] - vm.F[in.Rt-isa.F0]
		case isa.FMUL:
			vm.F[in.Rd-isa.F0] = vm.F[in.Rs-isa.F0] * vm.F[in.Rt-isa.F0]
		case isa.FDIV:
			vm.F[in.Rd-isa.F0] = vm.F[in.Rs-isa.F0] / vm.F[in.Rt-isa.F0]
		case isa.FNEG:
			vm.F[in.Rd-isa.F0] = -vm.F[in.Rs-isa.F0]
		case isa.FABS:
			vm.F[in.Rd-isa.F0] = math.Abs(vm.F[in.Rs-isa.F0])
		case isa.FSQRT:
			vm.F[in.Rd-isa.F0] = math.Sqrt(vm.F[in.Rs-isa.F0])
		case isa.FMOV:
			vm.F[in.Rd-isa.F0] = vm.F[in.Rs-isa.F0]
		case isa.FLI:
			vm.F[in.Rd-isa.F0] = in.FImm
		case isa.FSLT:
			vm.setR(in.Rd, b2i(vm.F[in.Rs-isa.F0] < vm.F[in.Rt-isa.F0]))
		case isa.FSLE:
			vm.setR(in.Rd, b2i(vm.F[in.Rs-isa.F0] <= vm.F[in.Rt-isa.F0]))
		case isa.FSEQ:
			vm.setR(in.Rd, b2i(vm.F[in.Rs-isa.F0] == vm.F[in.Rt-isa.F0]))
		case isa.FSNE:
			vm.setR(in.Rd, b2i(vm.F[in.Rs-isa.F0] != vm.F[in.Rt-isa.F0]))
		case isa.CVTIF:
			vm.F[in.Rd-isa.F0] = float64(vm.R[in.Rs])
		case isa.CVTFI:
			vm.setR(in.Rd, int64(vm.F[in.Rs-isa.F0]))
		case isa.CMOVN:
			if vm.R[in.Rt] != 0 {
				vm.setR(in.Rd, vm.R[in.Rs])
			}
		case isa.CMOVZ:
			if vm.R[in.Rt] == 0 {
				vm.setR(in.Rd, vm.R[in.Rs])
			}
		case isa.FCMOVN:
			if vm.R[in.Rt] != 0 {
				vm.F[in.Rd-isa.F0] = vm.F[in.Rs-isa.F0]
			}
		case isa.FCMOVZ:
			if vm.R[in.Rt] == 0 {
				vm.F[in.Rd-isa.F0] = vm.F[in.Rs-isa.F0]
			}
		case isa.BEQ:
			ev.Taken = vm.R[in.Rs] == vm.R[in.Rt]
			if ev.Taken {
				next = in.Target
			}
		case isa.BNE:
			ev.Taken = vm.R[in.Rs] != vm.R[in.Rt]
			if ev.Taken {
				next = in.Target
			}
		case isa.BLT:
			ev.Taken = vm.R[in.Rs] < vm.R[in.Rt]
			if ev.Taken {
				next = in.Target
			}
		case isa.BGE:
			ev.Taken = vm.R[in.Rs] >= vm.R[in.Rt]
			if ev.Taken {
				next = in.Target
			}
		case isa.BLE:
			ev.Taken = vm.R[in.Rs] <= vm.R[in.Rt]
			if ev.Taken {
				next = in.Target
			}
		case isa.BGT:
			ev.Taken = vm.R[in.Rs] > vm.R[in.Rt]
			if ev.Taken {
				next = in.Target
			}
		case isa.J:
			next = in.Target
		case isa.JAL:
			vm.R[isa.RRA] = int64(vm.pc + 1)
			next = in.Target
		case isa.JR:
			next = int(vm.R[in.Rs])
		case isa.JALR:
			vm.R[isa.RRA] = int64(vm.pc + 1)
			next = int(vm.R[in.Rs])
		case isa.JTAB:
			idx := vm.R[in.Rs]
			tab := vm.prog.Tables[in.Table]
			if idx < 0 || idx >= int64(len(tab)) {
				return vm.trap("jump table index %d out of range [0,%d)", idx, len(tab))
			}
			next = tab[idx]
			ev.Addr = int64(next)
		case isa.HALT:
			vm.Steps++
			if visit != nil {
				visit(ev)
			}
			return nil
		case isa.PRINTI:
			fmt.Fprintf(&vm.out, "%d", vm.R[in.Rs])
		case isa.PRINTF:
			fmt.Fprintf(&vm.out, "%g", vm.F[in.Rs-isa.F0])
		case isa.PRINTC:
			vm.out.WriteByte(byte(vm.R[in.Rs]))
		default:
			return vm.trap("unimplemented opcode")
		}
		vm.Steps++
		if visit != nil {
			visit(ev)
		}
		if vm.Steps >= limit {
			return ErrStepLimit
		}
		if vm.Steps >= nextCheck {
			nextCheck = vm.Steps + CheckInterval
			if done != nil {
				select {
				case <-done:
					return fmt.Errorf("%w after %d steps: %v", ErrCanceled, vm.Steps, ctx.Err())
				default:
				}
			}
			if hook != nil {
				var t0 time.Time
				if hookNs != nil {
					t0 = time.Now()
				}
				err := hook(vm.Steps)
				if hookNs != nil {
					hookNs.AddDuration(time.Since(t0))
				}
				if err != nil {
					return fmt.Errorf("vm: step hook at step %d: %w", vm.Steps, err)
				}
			}
		}
		vm.pc = next
	}
}

func (vm *VM) setR(r isa.Reg, v int64) {
	if r != isa.RZero {
		vm.R[r] = v
	}
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
