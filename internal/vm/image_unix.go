//go:build unix

package vm

import (
	"runtime"
	"syscall"
	"unsafe"
)

// mapping is one memory image mapped outside the Go heap.  The finalizer
// that unmaps an unreleased image sits here rather than on the VM: this
// object holds no pointer into the heap, so no reference cycle through
// the VM (a StepHook closure that refers to its machine makes one) can
// keep it from running, and the runtime does not promise to finalize an
// object in a cycle.
type mapping struct{ b []byte }

// mapImage maps a zeroed image of words words as private anonymous
// memory.  A nil mapping means the mapping failed and the caller
// allocates the image from the heap instead.
func mapImage(words int) ([]int64, *mapping) {
	b, err := syscall.Mmap(-1, 0, words*8, syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, nil
	}
	m := &mapping{b}
	runtime.SetFinalizer(m, (*mapping).unmap)
	return unsafe.Slice((*int64)(unsafe.Pointer(&b[0])), words), m
}

// unmap returns the image to the kernel.  Munmap fails only for a range
// that is not a live mapping, which a bug alone can produce, and its
// caller (Release or the finalizer) could do nothing with the error.
func (m *mapping) unmap() {
	runtime.SetFinalizer(m, nil)
	_ = syscall.Munmap(m.b)
}
