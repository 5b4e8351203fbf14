package fabric

import (
	"encoding/json"
	"testing"

	"ilplimit/internal/harness"
	"ilplimit/internal/iofault"
	"ilplimit/internal/journal"
)

// recoveryJournal opens a coordinator recovery journal in dir and
// registers its close.  Records() surfaces only records salvaged at
// open time — exactly what a restarted coordinator sees — so tests
// append to one handle and replay over a reopened one.
func recoveryJournal(t *testing.T, dir string) *journal.Journal {
	t.Helper()
	j, err := journal.OpenNamed(iofault.OS(), dir, "coordinator.ilpj", harness.Options{}.JournalMeta(""))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = j.Close() })
	return j
}

// reopen closes j and opens the same recovery journal again, as the
// next coordinator incarnation would.
func reopen(t *testing.T, j *journal.Journal, dir string) *journal.Journal {
	t.Helper()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	return recoveryJournal(t, dir)
}

func appendRec(t *testing.T, j *journal.Journal, kind string, v interface{}) {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.AppendRecord(kind, raw); err != nil {
		t.Fatal(err)
	}
}

// folded builds a coordinator over a recovery journal, as the next
// incarnation would, so a test can read the table the fold left.
func folded(j *journal.Journal) *Coordinator {
	return NewCoordinator(harness.Options{}.JournalMeta(""), CoordinatorOptions{Recovery: j})
}

// TestReplayRecoveryFold drives the two-pass fold with a re-granted
// lease: a completion names the lease it was admitted under, so it must
// end exactly that grant and leave a newer grant for the same cell
// outstanding.
func TestReplayRecoveryFold(t *testing.T) {
	dir := t.TempDir()
	j := recoveryJournal(t, dir)
	appendRec(t, j, RecordLease, leaseRecord{ID: "lease-1", Index: 0, Bench: "awk", Worker: "w0"})
	appendRec(t, j, RecordLease, leaseRecord{ID: "lease-2", Index: 1, Bench: "eqntott", Worker: "w0"})
	// Cell 0 requeued and re-granted: last grant wins the lease table.
	appendRec(t, j, RecordLease, leaseRecord{ID: "lease-3", Index: 0, Bench: "awk", Worker: "w1"})
	// The original attempt's completion ends lease-1 only; lease-3 must
	// survive the fold even though the records are not interleaved.
	appendRec(t, j, RecordCell, cellRecord{Index: 0, Bench: "awk", LeaseID: "lease-1", Worker: "w0", Error: "boom", Retryable: true})
	appendRec(t, j, RecordCell, cellRecord{Index: 1, Bench: "eqntott", LeaseID: "lease-2", Worker: "w0", Result: json.RawMessage(`{"name":"eqntott"}`)})

	c := folded(reopen(t, j, dir))
	if c.nextLease != 3 {
		t.Errorf("nextLease = %d, want 3", c.nextLease)
	}
	if len(c.leases) != 1 || c.leases["lease-3"] != 0 || c.cells[0].leaseID != "lease-3" || c.cells[0].worker != "w1" {
		t.Errorf("surviving leases = %+v, cell 0 holds %q on %q, want only lease-3 on cell 0 from w1",
			c.leases, c.cells[0].leaseID, c.cells[0].worker)
	}
	if _, ok := c.leases["lease-1"]; ok {
		t.Error("ended lease-1 still indexed")
	}
	if len(c.cells[0].pending) != 1 || len(c.cells[1].pending) != 1 {
		t.Fatalf("pending = %+v, %+v, want one per cell", c.cells[0].pending, c.cells[1].pending)
	}

	// Outcome conversion round-trips the admission-path semantics.
	if out := c.cells[0].pending[0]; out.err == nil || !harness.Retryable(out.err) {
		t.Errorf("journaled transient failure replayed as %v", out.err)
	}
	if out := c.cells[1].pending[0]; out.err != nil || out.res == nil || out.res.Name != "eqntott" {
		t.Errorf("journaled result replayed as (%+v, %v)", out.res, out.err)
	}
}

// TestReplayRecoverySkipsUnparseable checks the best-effort contract: a
// CRC-valid but semantically broken record is skipped, not fatal.
func TestReplayRecoverySkipsUnparseable(t *testing.T) {
	dir := t.TempDir()
	j := recoveryJournal(t, dir)
	if err := j.AppendRecord(RecordLease, []byte(`{"id":123}`)); err != nil {
		t.Fatal(err)
	}
	if err := j.AppendRecord(RecordCell, []byte(`not json`)); err != nil {
		t.Fatal(err)
	}
	appendRec(t, j, RecordLease, leaseRecord{ID: "lease-7", Index: 2, Bench: "awk", Worker: "w0"})
	c := folded(reopen(t, j, dir))
	if len(c.leases) != 1 || c.leases["lease-7"] != 2 || c.cells[2].leaseID != "lease-7" || c.nextLease != 7 {
		t.Errorf("replay over junk records = %+v nextLease=%d", c.leases, c.nextLease)
	}
	for i, cs := range c.cells {
		if len(cs.pending) != 0 {
			t.Errorf("junk cell record produced outcomes for cell %d: %+v", i, cs.pending)
		}
	}
}

// TestUndecodableJournaledResult checks a corrupted persisted result
// replays as a transient failure (the cell re-runs) rather than
// poisoning the suite.
func TestUndecodableJournaledResult(t *testing.T) {
	cr := cellRecord{Index: 0, Bench: "awk", Worker: "w0", Result: json.RawMessage(`{"name":`)}
	out := cr.outcome()
	if out.err == nil || !harness.Retryable(out.err) {
		t.Errorf("undecodable journaled result = (%+v, %v), want transient failure", out.res, out.err)
	}
}

func TestLeaseOrdinal(t *testing.T) {
	for _, tc := range []struct {
		id   string
		want int64
	}{
		{"lease-12", 12}, {"lease-1", 1}, {"lease-x", 0}, {"bogus", 0}, {"", 0},
	} {
		if got := leaseOrdinal(tc.id); got != tc.want {
			t.Errorf("leaseOrdinal(%q) = %d, want %d", tc.id, got, tc.want)
		}
	}
}
