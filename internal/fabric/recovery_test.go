package fabric_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ilplimit/internal/fabric"
	"ilplimit/internal/harness"
	"ilplimit/internal/iofault"
	"ilplimit/internal/journal"
	"ilplimit/internal/telemetry"
)

// crashedCoordinator stands up a coordinator with a recovery journal,
// leases cell 0 to worker "ghost" through the wire protocol, then
// simulates a SIGKILL: the server stops, the blocked
// RunCell is abandoned, and the journal handle is dropped without any
// graceful shutdown path running.  It returns the recovery journal's
// directory and the lease ID the ghost worker still believes it holds.
func crashedCoordinator(t *testing.T, opt harness.Options) (dir, leaseID string) {
	t.Helper()
	dir = t.TempDir()
	meta := opt.JournalMeta("")
	rec, err := journal.OpenNamed(iofault.OS(), dir, "coordinator.ilpj", meta)
	if err != nil {
		t.Fatal(err)
	}
	c := fabric.NewCoordinator(meta, fabric.CoordinatorOptions{LeaseTTL: time.Second, Recovery: rec})
	ts := httptest.NewServer(c.Handler())

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _ = c.RunCell(ctx, harness.Cell{Index: 0, Bench: opt.Benchmarks[0]}, opt)
	}()
	var lr fabric.LeaseReply
	deadline := time.Now().Add(5 * time.Second)
	for lr.Status != fabric.LeaseCell {
		if time.Now().After(deadline) {
			t.Fatal("cell never leased to the ghost worker")
		}
		postJSON(t, ts.URL, fabric.PathLease, fabric.LeaseRequest{
			ProtoVersion: fabric.ProtoVersion, WorkerID: "ghost", Fingerprint: meta.Fingerprint(),
		}, &lr)
		if lr.Status != fabric.LeaseCell {
			time.Sleep(2 * time.Millisecond)
		}
	}

	// The "kill": nothing graceful runs — the grant is only on disk.
	ts.Close()
	cancel()
	<-done
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	return dir, lr.LeaseID
}

// restartCoordinator builds the next coordinator incarnation over the
// recovery journal a crashed one left in dir.  metrics and progress may
// be nil.  (Enabling Metrics makes workers attach telemetry to their
// results, so the byte-identity test observes recovery through progress
// lines instead.)
func restartCoordinator(t *testing.T, opt harness.Options, dir string, metrics *telemetry.Registry, progress io.Writer) (*fabric.Coordinator, string) {
	t.Helper()
	meta := opt.JournalMeta("")
	rec, err := journal.OpenNamed(iofault.OS(), dir, "coordinator.ilpj", meta)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = rec.Close() })
	c := fabric.NewCoordinator(meta, fabric.CoordinatorOptions{LeaseTTL: time.Second, Metrics: metrics, Progress: progress, Recovery: rec})
	ts := httptest.NewServer(c.Handler())
	t.Cleanup(ts.Close)
	return c, ts.URL
}

// TestCoordinatorRestartEarlyCompletion kills a coordinator right after
// a lease grant and has the worker finish the cell against the restarted
// incarnation BEFORE the harness re-enqueues it.  The completion must be
// admitted early (not dropped as stale), delivered once the enqueue
// happens, and the new incarnation's lease ordinals must continue past
// the dead one's so grant IDs are never reused.
func TestCoordinatorRestartEarlyCompletion(t *testing.T) {
	opt := suiteOptions(t, "awk")
	meta := opt.JournalMeta("")
	dir, leaseID := crashedCoordinator(t, opt)
	if leaseID != "lease-1" {
		t.Fatalf("first incarnation granted %q, want lease-1", leaseID)
	}

	metrics := telemetry.NewRegistry()
	c, base := restartCoordinator(t, opt, dir, metrics, nil)
	if s := metrics.Snapshot(); s.Counters["fabric.recovered_leases"] != 1 {
		t.Fatalf("recovered_leases = %d, want 1", s.Counters["fabric.recovered_leases"])
	}

	// The ghost's heartbeat cites a lease only the journal remembers: it
	// must not be revoked.  Another worker citing it must be.
	var hr fabric.HeartbeatReply
	postJSON(t, base, fabric.PathHeartbeat, fabric.HeartbeatRequest{WorkerID: "ghost", LeaseIDs: []string{leaseID}}, &hr)
	if len(hr.Revoked) != 0 {
		t.Errorf("recovered lease revoked from its own worker: %+v", hr.Revoked)
	}
	postJSON(t, base, fabric.PathHeartbeat, fabric.HeartbeatRequest{WorkerID: "intruder", LeaseIDs: []string{leaseID}}, &hr)
	if len(hr.Revoked) != 1 {
		t.Errorf("recovered lease honored for the wrong worker: %+v", hr.Revoked)
	}

	// Completion before any enqueue: early admission, exactly once.
	raw, _ := json.Marshal(&harness.BenchResult{Name: "awk"})
	var cr fabric.CompleteReply
	postJSON(t, base, fabric.PathComplete, fabric.CompleteRequest{
		ProtoVersion: fabric.ProtoVersion, WorkerID: "ghost", LeaseID: leaseID,
		Index: 0, Bench: "awk", Result: raw,
	}, &cr)
	if !cr.Accepted || cr.Stale {
		t.Fatalf("pre-enqueue completion under recovered lease = %+v, want early admission", cr)
	}
	postJSON(t, base, fabric.PathComplete, fabric.CompleteRequest{
		ProtoVersion: fabric.ProtoVersion, WorkerID: "ghost", LeaseID: leaseID,
		Index: 0, Bench: "awk", Result: raw,
	}, &cr)
	if !cr.Stale {
		t.Errorf("duplicate completion not dropped as stale: %+v", cr)
	}

	// The enqueue consumes the stashed outcome without any live worker.
	res, err := c.RunCell(context.Background(), harness.Cell{Index: 0, Bench: opt.Benchmarks[0]}, opt)
	if err != nil || res == nil || res.Name != "awk" {
		t.Fatalf("RunCell after early admission = (%+v, %v)", res, err)
	}

	// A retry attempt gets a fresh grant whose ordinal resumes past the
	// dead incarnation's.
	outc := make(chan error, 1)
	go func() {
		_, err := c.RunCell(context.Background(), harness.Cell{Index: 0, Bench: opt.Benchmarks[0]}, opt)
		outc <- err
	}()
	var lr fabric.LeaseReply
	deadline := time.Now().Add(5 * time.Second)
	for lr.Status != fabric.LeaseCell && !time.Now().After(deadline) {
		postJSON(t, base, fabric.PathLease, fabric.LeaseRequest{
			ProtoVersion: fabric.ProtoVersion, WorkerID: "w2", Fingerprint: meta.Fingerprint(),
		}, &lr)
	}
	if lr.LeaseID != "lease-2" {
		t.Errorf("post-restart grant = %q, want lease-2 (ordinals resume)", lr.LeaseID)
	}
	postJSON(t, base, fabric.PathComplete, fabric.CompleteRequest{
		ProtoVersion: fabric.ProtoVersion, WorkerID: "w2", LeaseID: lr.LeaseID,
		Index: lr.Index, Bench: lr.Bench, Result: raw,
	}, &cr)
	if err := <-outc; err != nil {
		t.Fatalf("retry attempt after restart: %v", err)
	}
	if s := metrics.Snapshot(); s.Counters["fabric.cells_replayed"] != 1 {
		t.Errorf("cells_replayed = %d, want 1", s.Counters["fabric.cells_replayed"])
	}
}

// TestCoordinatorRestartLeaseReattach restarts a coordinator while a
// worker is still computing a granted cell.  The re-enqueued cell must
// re-attach to the recovered lease — not become stealable — and the
// worker's eventual completion under the old lease ID must be admitted
// through the live path.
func TestCoordinatorRestartLeaseReattach(t *testing.T) {
	opt := suiteOptions(t, "awk")
	meta := opt.JournalMeta("")
	dir, leaseID := crashedCoordinator(t, opt)

	metrics := telemetry.NewRegistry()
	c, base := restartCoordinator(t, opt, dir, metrics, nil)
	outc := make(chan error, 1)
	go func() {
		res, err := c.RunCell(context.Background(), harness.Cell{Index: 0, Bench: opt.Benchmarks[0]}, opt)
		if err == nil && (res == nil || res.Name != "awk") {
			err = errNilResult
		}
		outc <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for metrics.Snapshot().Counters["fabric.leases_reattached"] == 0 {
		if time.Now().After(deadline) {
			t.Fatal("re-enqueued cell never re-attached to the recovered lease")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// The cell is owned by the ghost: a polling thief must not steal it.
	var lr fabric.LeaseReply
	postJSON(t, base, fabric.PathLease, fabric.LeaseRequest{
		ProtoVersion: fabric.ProtoVersion, WorkerID: "thief", Fingerprint: meta.Fingerprint(),
	}, &lr)
	if lr.Status != fabric.LeaseWait {
		t.Errorf("re-attached cell leased to a thief: %+v", lr)
	}
	var hr fabric.HeartbeatReply
	postJSON(t, base, fabric.PathHeartbeat, fabric.HeartbeatRequest{WorkerID: "ghost", LeaseIDs: []string{leaseID}}, &hr)
	if len(hr.Revoked) != 0 {
		t.Errorf("re-attached lease revoked: %+v", hr.Revoked)
	}

	raw, _ := json.Marshal(&harness.BenchResult{Name: "awk"})
	var cr fabric.CompleteReply
	postJSON(t, base, fabric.PathComplete, fabric.CompleteRequest{
		ProtoVersion: fabric.ProtoVersion, WorkerID: "ghost", LeaseID: leaseID,
		Index: 0, Bench: "awk", Result: raw,
	}, &cr)
	if !cr.Accepted || cr.Stale {
		t.Fatalf("completion under re-attached lease = %+v", cr)
	}
	if err := <-outc; err != nil {
		t.Fatalf("RunCell across coordinator restart: %v", err)
	}
	s := metrics.Snapshot()
	if s.Counters["fabric.stale_completions"] != 0 {
		t.Errorf("stale_completions = %d, want 0", s.Counters["fabric.stale_completions"])
	}
}

// errNilResult flags a RunCell success that carried no usable result.
var errNilResult = &fabric.RemoteError{Msg: "nil result"}

// TestRecoveredLeaseLapses: a lease folded from the recovery journal
// is a live lease whose TTL starts at the restart.  When its worker
// never calls back within one TTL, the lease lapses, so the cell's
// enqueue queues it for any worker instead of waiting on the dead one,
// and the dead worker's late completion is stale.
func TestRecoveredLeaseLapses(t *testing.T) {
	opt := suiteOptions(t, "awk")
	meta := opt.JournalMeta("")
	dir, ghostLease := crashedCoordinator(t, opt)
	rec, err := journal.OpenNamed(iofault.OS(), dir, "coordinator.ilpj", meta)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = rec.Close() })
	const ttl = 50 * time.Millisecond
	metrics := telemetry.NewRegistry()
	c := fabric.NewCoordinator(meta, fabric.CoordinatorOptions{LeaseTTL: ttl, Metrics: metrics, Recovery: rec})
	ts := httptest.NewServer(c.Handler())
	t.Cleanup(ts.Close)
	time.Sleep(2 * ttl) // no call: the ghost never comes back

	outc := make(chan error, 1)
	go func() {
		res, err := c.RunCell(context.Background(), harness.Cell{Index: 0, Bench: opt.Benchmarks[0]}, opt)
		if err == nil && (res == nil || res.Name != "awk") {
			err = errNilResult
		}
		outc <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for s := metrics.Snapshot(); s.Counters["fabric.cells_enqueued"]+s.Counters["fabric.leases_reattached"] == 0; s = metrics.Snapshot() {
		if time.Now().After(deadline) {
			t.Fatal("RunCell never enqueued the cell")
		}
		time.Sleep(time.Millisecond)
	}
	var lr fabric.LeaseReply
	postJSON(t, ts.URL, fabric.PathLease, fabric.LeaseRequest{
		ProtoVersion: fabric.ProtoVersion, WorkerID: "w1", Fingerprint: meta.Fingerprint(),
	}, &lr)
	if lr.Status != fabric.LeaseCell || lr.Index != 0 {
		t.Fatalf("lease poll after the recovered lease lapsed = %+v, want cell 0", lr)
	}

	raw, _ := json.Marshal(&harness.BenchResult{Name: "awk"})
	var cr fabric.CompleteReply
	postJSON(t, ts.URL, fabric.PathComplete, fabric.CompleteRequest{
		ProtoVersion: fabric.ProtoVersion, WorkerID: "ghost", LeaseID: ghostLease,
		Index: 0, Bench: "awk", Result: raw,
	}, &cr)
	if !cr.Stale {
		t.Errorf("completion under the lapsed recovered lease = %+v, want stale", cr)
	}
	postJSON(t, ts.URL, fabric.PathComplete, fabric.CompleteRequest{
		ProtoVersion: fabric.ProtoVersion, WorkerID: "w1", LeaseID: lr.LeaseID,
		Index: 0, Bench: "awk", Result: raw,
	}, &cr)
	if !cr.Accepted {
		t.Fatalf("completion under the fresh lease = %+v, want accepted", cr)
	}
	if err := <-outc; err != nil {
		t.Fatalf("RunCell after the recovered lease lapsed: %v", err)
	}
}

// TestCoordinatorRestartResumesRun is the end-to-end recovery
// guarantee: a real worker completes cell 0 under coordinator A, A dies
// without ever handing the result to a harness, and coordinator B —
// built over A's recovery journal — finishes the suite with a
// SuiteResult and run journal byte-identical to an uninterrupted local
// run.
func TestCoordinatorRestartResumesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real benchmarks")
	}
	opt := suiteOptions(t, "awk", "eqntott")
	meta := opt.JournalMeta("")

	// Uninterrupted local reference.
	dirL := t.TempDir()
	ref := func() []byte {
		ropt := opt
		j, err := journal.Open(dirL, meta)
		if err != nil {
			t.Fatal(err)
		}
		ropt.Journal = j
		suite, err := harness.RunSuite(ropt)
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		out, err := json.Marshal(suite)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}()

	// Incarnation A: a real worker computes cell 0; the admitted result
	// reaches A's recovery journal, then A dies before any RunSuite.
	dirF := t.TempDir()
	recA, err := journal.OpenNamed(iofault.OS(), dirF, "coordinator.ilpj", meta)
	if err != nil {
		t.Fatal(err)
	}
	cA := fabric.NewCoordinator(meta, fabric.CoordinatorOptions{LeaseTTL: time.Second, Recovery: recA})
	tsA := httptest.NewServer(cA.Handler())
	wctx, wcancel := context.WithCancel(context.Background())
	wdone := make(chan struct{})
	go func() {
		defer close(wdone)
		// The worker outlives A's server; its error (if any) is the
		// expected fallout of the crash, not a test failure.
		w := &fabric.Worker{Base: tsA.URL, ID: "w0", Poll: 10 * time.Millisecond, RejoinWait: 100 * time.Millisecond}
		_ = w.Run(wctx)
	}()
	res0, err := cA.RunCell(context.Background(), harness.Cell{Index: 0, Bench: opt.Benchmarks[0]}, opt)
	if err != nil || res0 == nil {
		t.Fatalf("cell 0 under incarnation A: (%+v, %v)", res0, err)
	}
	tsA.Close()
	wcancel()
	<-wdone
	if err := recA.Close(); err != nil {
		t.Fatal(err)
	}

	// Incarnation B resumes: cell 0 replays from the journal, cell 1
	// runs live on a fresh worker.  No Metrics here: enabling them makes
	// the worker embed telemetry in its result, which a local run
	// without Metrics would not have — recovery is observed through the
	// progress log instead.
	var progress bytes.Buffer
	cB, base := restartCoordinator(t, opt, dirF, nil, &progress)
	wait := runWorkers(t, base, 1, nil)
	ropt := opt
	j, err := journal.Open(dirF, meta)
	if err != nil {
		t.Fatal(err)
	}
	ropt.Journal = j
	ropt.CellRunner = cB.RunCell
	suite, serr := harness.RunSuite(ropt)
	cB.Finish()
	wait()
	if serr != nil {
		t.Fatalf("resumed suite: %v", serr)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	got, err := json.Marshal(suite)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, ref) {
		t.Errorf("resumed SuiteResult differs from local (%d vs %d bytes)", len(got), len(ref))
	}
	jl, err := os.ReadFile(filepath.Join(dirL, journal.FileName))
	if err != nil {
		t.Fatal(err)
	}
	jf, err := os.ReadFile(filepath.Join(dirF, journal.FileName))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(jl, jf) {
		t.Errorf("resumed run journal differs from local (%d vs %d bytes)", len(jf), len(jl))
	}
	for _, want := range []string{
		"recovered 1 completed cell(s) from a previous coordinator",
		"outcome replayed from recovery journal",
	} {
		if !strings.Contains(progress.String(), want) {
			t.Errorf("progress log missing %q:\n%s", want, progress.String())
		}
	}
}
