package vm

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
)

// imageWords sizes the images these tests compare: 128 dirty-map pages.
const imageWords = 1 << 16

// pageStores writes every page it touches with a distinct nonzero
// value: it overwrites a data word, pushes a stack word, and then, for
// each of 40 page pairs from word 4096 up, stores with SW into the even
// page and with FSW into the odd one, which no SW reaches.  tail runs
// after the stores (a halt, a trap, a spin).
func pageStores(tail string) string {
	return `
.data
init: .word 7 8 9
.proc main
	la    $t0, init
	li    $t1, 99
	sw    $t1, 1($t0)
	addi  $sp, $sp, -1
	sw    $t1, 0($sp)
	li    $t2, 1
	li    $t3, 41
	li    $t4, 4096
loop:
	sw    $t2, 7($t4)
	cvtif $f1, $t2
	fsw   $f1, 519($t4)
	addi  $t4, $t4, 1024
	addi  $t2, $t2, 1
	blt   $t2, $t3, loop
` + tail + `
.endproc
`
}

// sameAsFresh fails t unless m's registers, program counter and memory
// equal those of a fresh VM for the same program.
func sameAsFresh(t *testing.T, what string, m *VM) {
	t.Helper()
	fresh := NewSized(m.prog, len(m.Mem))
	defer fresh.Release()
	if m.R != fresh.R || m.F != fresh.F || m.pc != fresh.pc || m.Steps != 0 || m.Output() != "" {
		t.Errorf("%s: Reset left registers, pc or counters unlike a fresh VM", what)
	}
	if !slices.Equal(m.Mem, fresh.Mem) {
		for a := range m.Mem {
			if m.Mem[a] != fresh.Mem[a] {
				t.Errorf("%s: after Reset Mem[%d] = %d, fresh image has %d", what, a, m.Mem[a], fresh.Mem[a])
				break
			}
		}
	}
}

// TestResetRestoresFreshImage runs a program that writes 80 pages
// (half of them only by FSW) to completion, to a trap, and to a
// cancellation, and checks that Reset restores the fresh image each
// time, twice in a row.
func TestResetRestoresFreshImage(t *testing.T) {
	cases := []struct {
		name, tail string
		run        func(*VM) error
		wantErr    error
	}{
		{"halt", "\thalt", func(m *VM) error { return m.Run(nil) }, nil},
		{"trap", "\tdiv $t5, $t1, $zero\n\thalt", func(m *VM) error { return m.Run(nil) }, nil},
		{"cancel", "spin:\n\tsw $t2, 100($t4)\n\tj spin\n\thalt", func(m *VM) error {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			return m.RunContext(ctx, func(ev Event) {
				if ev.Seq == 3*CheckInterval {
					cancel()
				}
			})
		}, ErrCanceled},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := NewSized(mustAssemble(t, pageStores(c.tail)), imageWords)
			defer m.Release()
			for pass := 0; pass < 2; pass++ {
				err := c.run(m)
				switch {
				case c.name == "trap" && err == nil:
					t.Fatal("run did not trap")
				case c.name != "trap" && !errors.Is(err, c.wantErr):
					t.Fatalf("run = %v, want %v", err, c.wantErr)
				}
				if m.Mem[4096+1024+519] == 0 {
					t.Fatal("the FSW pages were never written")
				}
				m.Reset()
				sameAsFresh(t, fmt.Sprintf("pass %d", pass), m)
			}
		})
	}
}

// TestReleaseTwice releases a used VM twice: the image is gone after
// the first call and the second does nothing.
func TestReleaseTwice(t *testing.T) {
	m := NewSized(mustAssemble(t, pageStores("\thalt")), imageWords)
	if err := m.Run(nil); err != nil {
		t.Fatal(err)
	}
	m.Release()
	if m.Mem != nil || m.img != nil {
		t.Fatal("Release left the image in place")
	}
	m.Release()
}

// TestImageLifecycleConcurrent runs the whole lifecycle on 8 goroutines
// at once (run it under -race): every VM must reproduce the reference
// run on both passes.
func TestImageLifecycleConcurrent(t *testing.T) {
	p := mustAssemble(t, pageStores("\tprinti $t2\n\thalt"))
	ref := NewSized(p, imageWords)
	if err := ref.Run(nil); err != nil {
		t.Fatal(err)
	}
	wantOut, wantSteps := ref.Output(), ref.Steps
	ref.Release()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 16; i++ {
				m := NewSized(p, imageWords)
				for pass := 0; pass < 2; pass++ {
					if err := m.Run(nil); err != nil {
						t.Error(err)
						return
					}
					if m.Output() != wantOut || m.Steps != wantSteps {
						t.Errorf("run printed %q in %d steps, want %q in %d", m.Output(), m.Steps, wantOut, wantSteps)
					}
					m.Reset()
				}
				m.Release()
			}
		}()
	}
	wg.Wait()
}
