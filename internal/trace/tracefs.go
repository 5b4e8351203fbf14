package trace

import (
	"os"

	"ilplimit/internal/iofault"
	"ilplimit/internal/vm"
)

// WriteFile writes a trace file crash-consistently through fsys: the
// events stream into a ".tmp" sibling, the file is fsynced, renamed
// over path, and the parent directory fsynced — so path only ever
// holds a complete, footered trace, and a crash or write error leaves
// either the old file or nothing, never a torn trace.  emit is called
// once with the open Writer to stream the events; WriteFile returns
// how many events were written.
func WriteFile(fsys iofault.FS, path string, emit func(*Writer) error) (int64, error) {
	tmp := path + ".tmp"
	f, err := fsys.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return 0, err
	}
	var n int64
	w, err := NewWriter(f)
	if err == nil {
		err = emit(w)
	}
	if err == nil {
		n = w.Count()
		err = w.Close() // terminator + footer + flush
	}
	if err := iofault.CommitFile(fsys, f, tmp, path, err); err != nil {
		return 0, err
	}
	return n, nil
}

// VisitFile opens path on fsys and replays it through Visit: f is
// invoked per event and the returned count is how many events were
// delivered before EOF or the first corruption, exactly as Visit
// reports for a stream.
func VisitFile(fsys iofault.FS, path string, f func(vm.Event)) (int64, error) {
	file, err := fsys.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return 0, err
	}
	defer file.Close()
	return Visit(file, f)
}
