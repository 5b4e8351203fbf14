package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"strings"
	"testing"
	"testing/quick"

	"ilplimit/internal/asm"
	"ilplimit/internal/minic"
	"ilplimit/internal/vm"
)

func TestFileRoundTrip(t *testing.T) {
	events := []vm.Event{
		{Idx: 0},
		{Idx: 5, Addr: 1024},
		{Idx: 7, Taken: true},
		{Idx: 7, Taken: false},
		{Idx: 1 << 20, Addr: 1 << 40, Taken: true},
	}
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range events {
		if err := w.Write(ev); err != nil {
			t.Fatal(err)
		}
	}
	if w.Count() != int64(len(events)) {
		t.Errorf("count = %d", w.Count())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range events {
		got, err := r.Next()
		if err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		want.Seq = int64(i)
		if got != want {
			t.Errorf("event %d: got %+v, want %+v", i, got, want)
		}
	}
	if _, err := r.Next(); err != io.EOF {
		t.Errorf("expected EOF, got %v", err)
	}
}

func TestFileRoundTripProperty(t *testing.T) {
	f := func(raw []struct {
		Idx   uint32
		Addr  uint32
		Taken bool
	}) bool {
		var buf bytes.Buffer
		w, err := NewWriter(&buf)
		if err != nil {
			return false
		}
		var events []vm.Event
		for _, e := range raw {
			ev := vm.Event{Idx: int32(e.Idx & 0x7FFFFFFF), Addr: int64(e.Addr), Taken: e.Taken}
			events = append(events, ev)
			if w.Write(ev) != nil {
				return false
			}
		}
		if w.Close() != nil {
			return false
		}
		i := 0
		n, err := Visit(bytes.NewReader(buf.Bytes()), func(got vm.Event) {
			want := events[i]
			want.Seq = int64(i)
			if got != want {
				t.Logf("mismatch at %d: %+v vs %+v", i, got, want)
			}
			i++
		})
		return err == nil && n == int64(len(events)) && i == len(events)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestFileErrors(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("ILP"),
		[]byte("XXXX\x01"),
		[]byte("ILPT\x09"),
		[]byte("ILPT\x01"),                   // missing terminator
		[]byte("ILPT\x01\x07"),               // bad control byte
		[]byte("ILPT\x01\x01"),               // truncated index
		append([]byte("ILPT\x01\x01"), 0x05), // truncated address
		[]byte("ILPT\x02\xff"),               // v2 terminator without a footer
	}
	for i, data := range cases {
		if _, err := Visit(bytes.NewReader(data), func(vm.Event) {}); err == nil {
			t.Errorf("case %d: malformed input accepted", i)
		}
	}
	// A well-formed empty trace is fine.
	if n, err := Visit(bytes.NewReader([]byte("ILPT\x01\xff")), func(vm.Event) {}); err != nil || n != 0 {
		t.Errorf("empty trace: n=%d err=%v", n, err)
	}
}

// TestFileMatchesLiveTrace records a real compiled program's trace and
// replays it, checking event-for-event equality.
func TestFileMatchesLiveTrace(t *testing.T) {
	asmText, err := minic.Compile(`
int a[32];
int main() {
	int i, s;
	s = 0;
	for (i = 0; i < 32; i++) a[i] = i;
	for (i = 0; i < 32; i++) if (a[i] & 1) s += a[i];
	print(s);
	return 0;
}
`)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := asm.Assemble(asmText)
	if err != nil {
		t.Fatal(err)
	}
	machine := vm.NewSized(prog, 1<<14)
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var live []vm.Event
	err = machine.Run(func(ev vm.Event) {
		live = append(live, ev)
		if err := w.Write(ev); err != nil {
			t.Fatal(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	i := 0
	n, err := Visit(bytes.NewReader(buf.Bytes()), func(got vm.Event) {
		if got != live[i] {
			t.Errorf("event %d: %+v vs %+v", i, got, live[i])
		}
		i++
	})
	if err != nil || n != int64(len(live)) {
		t.Fatalf("replay: n=%d err=%v, want %d", n, err, len(live))
	}
}

// writeTrace serializes events through the v2 writer.
func writeTrace(t *testing.T, events []vm.Event) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range events {
		if err := w.Write(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestFileV1StillReads pins backward compatibility: footer-less
// version-1 files (what earlier releases wrote) must keep loading.
func TestFileV1StillReads(t *testing.T) {
	// Handcrafted v1: {Idx:5}, {Idx:7, Addr:9, Taken:true}, terminator —
	// and nothing after it.
	data := []byte("ILPT\x01\x00\x05\x03\x07\x09\xff")
	var got []vm.Event
	n, err := Visit(bytes.NewReader(data), func(ev vm.Event) { got = append(got, ev) })
	if err != nil || n != 2 {
		t.Fatalf("v1 trace: n=%d err=%v", n, err)
	}
	want := []vm.Event{{Seq: 0, Idx: 5}, {Seq: 1, Idx: 7, Addr: 9, Taken: true}}
	if got[0] != want[0] || got[1] != want[1] {
		t.Errorf("v1 events = %+v, want %+v", got, want)
	}
}

// TestFileV2FlippedByteFailsLoudly is the point of the footer: a bit flip
// that still parses as valid records must be rejected by the CRC, while
// every event decoded before the footer check is still reported salvaged.
func TestFileV2FlippedByteFailsLoudly(t *testing.T) {
	events := []vm.Event{{Idx: 3, Addr: 100}, {Idx: 4, Taken: true}, {Idx: 5}}
	data := writeTrace(t, events)

	// Sanity: untampered reads clean.
	if n, err := Visit(bytes.NewReader(data), func(vm.Event) {}); err != nil || n != 3 {
		t.Fatalf("clean trace: n=%d err=%v", n, err)
	}

	// Flip the low bit of the first record's index byte (header is 5
	// bytes, control byte at 5, index at 6): 3 becomes 2, still a
	// perfectly parseable record.
	data[6] ^= 1
	n, err := Visit(bytes.NewReader(data), func(vm.Event) {})
	if !errors.Is(err, ErrBadTrace) {
		t.Fatalf("tampered trace: err=%v, want ErrBadTrace", err)
	}
	if !strings.Contains(err.Error(), "CRC") {
		t.Errorf("tampered trace failed for the wrong reason: %v", err)
	}
	if n != 3 {
		t.Errorf("salvaged %d events before the footer check, want 3", n)
	}
}

// TestFileV2TruncationReportsSalvage: cutting a v2 file mid-payload must
// error while reporting the usable prefix that was delivered.
func TestFileV2TruncationReportsSalvage(t *testing.T) {
	events := make([]vm.Event, 100)
	for i := range events {
		events[i] = vm.Event{Idx: int32(i), Addr: int64(i * 8), Taken: i%3 == 0}
	}
	data := writeTrace(t, events)
	cut := data[:len(data)*6/10]
	n, err := Visit(bytes.NewReader(cut), func(vm.Event) {})
	if !errors.Is(err, ErrBadTrace) {
		t.Fatalf("truncated trace: err=%v, want ErrBadTrace", err)
	}
	if n == 0 || n >= 100 {
		t.Errorf("salvaged %d events from a 60%% prefix, want a partial count", n)
	}
}

// TestFileV2FooterCountMismatch: a footer whose event count disagrees
// with the records read must be rejected even when the CRC was forged to
// match.
func TestFileV2FooterCountMismatch(t *testing.T) {
	data := writeTrace(t, []vm.Event{{Idx: 1}, {Idx: 2}, {Idx: 3}})
	data[len(data)-footerLen] ^= 0xFF // low byte of the event count
	n, err := Visit(bytes.NewReader(data), func(vm.Event) {})
	if !errors.Is(err, ErrBadTrace) {
		t.Fatalf("count-tampered trace: err=%v, want ErrBadTrace", err)
	}
	if !strings.Contains(err.Error(), "footer records") {
		t.Errorf("failed for the wrong reason: %v", err)
	}
	if n != 3 {
		t.Errorf("salvaged %d events, want 3", n)
	}
}

// TestIdentity checks the in-memory identity of a trace file: a v2
// file is identified by its footer once the payload CRC matches it, a
// v1 file by the CRC of the whole file, and a flipped payload byte, a
// missing footer or a foreign file are rejected without decoding.
func TestIdentity(t *testing.T) {
	data := writeTrace(t, []vm.Event{{Idx: 3, Addr: 100}, {Idx: 4, Taken: true}, {Idx: 5}})
	events, sum, err := Identity(data)
	foot := data[len(data)-footerLen:]
	if err != nil || events != 3 || sum != binary.LittleEndian.Uint32(foot[8:]) {
		t.Fatalf("v2 identity = %d, %08x, %v", events, sum, err)
	}
	v1 := []byte("ILPT\x01\x00\x05\x03\x07\x09\xff")
	if events, sum, err := Identity(v1); err != nil || events != 0 || sum != crc32.ChecksumIEEE(v1) {
		t.Errorf("v1 identity = %d, %08x, %v", events, sum, err)
	}
	flipped := bytes.Clone(data)
	flipped[6] ^= 1
	if _, _, err := Identity(flipped); !errors.Is(err, ErrBadTrace) || !strings.Contains(err.Error(), "CRC") {
		t.Errorf("flipped payload: err = %v, want a CRC mismatch", err)
	}
	for _, bad := range [][]byte{nil, []byte("ILPT\x02"), data[:len(data)-1], []byte("ILPX\x02\xff"), []byte("ILPT\x03\xff")} {
		if _, _, err := Identity(bad); !errors.Is(err, ErrBadTrace) {
			t.Errorf("Identity(%q) err = %v, want ErrBadTrace", bad, err)
		}
	}
}
