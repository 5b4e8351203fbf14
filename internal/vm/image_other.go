//go:build !unix

package vm

// mapping is never created off unix.
type mapping struct{}

// mapImage has no mapping to offer off unix; NewSized allocates the
// image from the heap, which the runtime hands out zeroed.
func mapImage(int) ([]int64, *mapping) { return nil, nil }

func (*mapping) unmap() {}
