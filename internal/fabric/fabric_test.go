package fabric_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"ilplimit/internal/bench"
	"ilplimit/internal/fabric"
	"ilplimit/internal/faultinject"
	"ilplimit/internal/harness"
	"ilplimit/internal/journal"
	"ilplimit/internal/telemetry"
)

// suiteOptions is the small two-cell configuration the fabric tests
// distribute.
func suiteOptions(t *testing.T, names ...string) harness.Options {
	t.Helper()
	var opt harness.Options
	for _, n := range names {
		b, err := bench.ByName(n)
		if err != nil {
			t.Fatal(err)
		}
		opt.Benchmarks = append(opt.Benchmarks, b)
	}
	return opt
}

// startFabric serves a coordinator for opt and returns it with its base
// URL.  Cleanup stops the watchdog and the server.
func startFabric(t *testing.T, opt harness.Options, co fabric.CoordinatorOptions) (*fabric.Coordinator, string) {
	t.Helper()
	c := fabric.NewCoordinator(opt.JournalMeta(""), co)
	ts := httptest.NewServer(c.Handler())
	t.Cleanup(ts.Close)
	return c, ts.URL
}

// runWorkers runs n in-process workers against base until the run is
// done, failing the test on worker errors.  The returned wait function
// blocks until every worker exited.
func runWorkers(t *testing.T, base string, n int, mutate func(i int, w *fabric.Worker)) (wait func()) {
	t.Helper()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		w := &fabric.Worker{Base: base, ID: fmt.Sprintf("w%d", i), Poll: 10 * time.Millisecond}
		if mutate != nil {
			mutate(i, w)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := w.Run(context.Background()); err != nil {
				t.Errorf("worker %s: %v", w.ID, err)
			}
		}()
	}
	return wg.Wait
}

// TestFabricMatchesLocal is the byte-identity guarantee: a suite
// distributed across two workers must produce a SuiteResult and a
// journal byte-identical to the same suite run in-process.
func TestFabricMatchesLocal(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real benchmarks")
	}
	opt := suiteOptions(t, "awk", "eqntott")

	runOnce := func(dir string, distribute bool) []byte {
		ropt := opt
		j, err := journal.Open(dir, ropt.JournalMeta(""))
		if err != nil {
			t.Fatal(err)
		}
		ropt.Journal = j
		var wait func()
		if distribute {
			c, base := startFabric(t, opt, fabric.CoordinatorOptions{LeaseTTL: time.Second})
			wait = runWorkers(t, base, 2, nil)
			ropt.CellRunner = c.RunCell
			defer func() { c.Finish(); wait() }()
		}
		suite, err := harness.RunSuite(ropt)
		if err != nil {
			t.Fatalf("suite (distribute=%v): %v", distribute, err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		out, err := json.Marshal(suite)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}

	dirL, dirF := t.TempDir(), t.TempDir()
	local := runOnce(dirL, false)
	dist := runOnce(dirF, true)
	if !bytes.Equal(local, dist) {
		t.Errorf("distributed SuiteResult differs from local (%d vs %d bytes)", len(dist), len(local))
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
		t.Errorf("distributed journal differs from local (%d vs %d bytes)", len(jf), len(jl))
	}
}

// TestLostWorkerRequeues kills one worker immediately after its first
// lease grant — before it ever heartbeats the lease — and checks the
// lease watchdog hands the cell to the surviving worker, with the run
// still completing correctly.
func TestLostWorkerRequeues(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real benchmarks")
	}
	opt := suiteOptions(t, "awk")
	metrics := telemetry.NewRegistry()
	// The doomed worker never heartbeats its lease, so requeue needs only
	// one TTL to elapse; the TTL must still be generous enough that the
	// survivor's heartbeats can't miss it while the benchmark saturates
	// the cores under the race detector.
	c, base := startFabric(t, opt, fabric.CoordinatorOptions{LeaseTTL: 2 * time.Second, Metrics: metrics})

	plan, err := faultinject.ParseFabricPlan("kill-after-leases=1")
	if err != nil {
		t.Fatal(err)
	}
	// The dying worker simulates its SIGKILL with Goexit: the slot
	// goroutine stops between lease grant and first heartbeat, exactly
	// the window a real kill -9 leaves.
	dieWait := runWorkers(t, base, 1, func(i int, w *fabric.Worker) {
		w.ID = "doomed"
		w.Plan = plan
		w.Exit = func(int) { runtime.Goexit() }
	})

	ropt := opt
	ropt.CellRunner = c.RunCell
	done := make(chan struct{})
	var suite *harness.SuiteResult
	var serr error
	go func() {
		defer close(done)
		suite, serr = harness.RunSuite(ropt)
	}()

	// Only start the survivor once the doomed worker is gone, so the
	// first grant deterministically goes to the one that dies.
	dieWait()
	wait := runWorkers(t, base, 1, func(i int, w *fabric.Worker) { w.ID = "survivor" })
	<-done
	c.Finish()
	wait()

	if serr != nil {
		t.Fatalf("suite after lost worker: %v", serr)
	}
	if len(suite.Benchmarks) != 1 || suite.Benchmarks[0].Name != "awk" {
		t.Fatalf("suite result malformed: %+v", suite.Benchmarks)
	}
	s := metrics.Snapshot()
	if s.Counters["fabric.requeues"] == 0 {
		t.Error("lost lease was never requeued")
	}
	if leases, _, _ := plan.FiredFabric(); leases != 1 {
		t.Errorf("fault plan saw %d leases, want 1", leases)
	}
}

// postJSON posts one protocol message and decodes the reply when the
// status is 200, returning the status code either way.
func postJSON(t *testing.T, base, path string, req, out interface{}) int {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

// TestProtocolRejections drives the coordinator's admission checks with
// raw protocol messages: version skew is a 400, fingerprint skew a 409,
// an expired lease's completion is dropped as stale, and the requeued
// cell still completes exactly once.
func TestProtocolRejections(t *testing.T) {
	opt := suiteOptions(t, "awk")
	metrics := telemetry.NewRegistry()
	c, base := startFabric(t, opt, fabric.CoordinatorOptions{LeaseTTL: 50 * time.Millisecond, Metrics: metrics})
	fp := opt.JournalMeta("").Fingerprint()

	var lr fabric.LeaseReply
	if code := postJSON(t, base, fabric.PathLease, fabric.LeaseRequest{ProtoVersion: 99, WorkerID: "x", Fingerprint: fp}, &lr); code != http.StatusBadRequest {
		t.Errorf("version-skewed lease got HTTP %d, want 400", code)
	}
	if code := postJSON(t, base, fabric.PathLease, fabric.LeaseRequest{ProtoVersion: fabric.ProtoVersion, WorkerID: "x", Fingerprint: "bogus"}, &lr); code != http.StatusConflict {
		t.Errorf("fingerprint-skewed lease got HTTP %d, want 409", code)
	}

	// No cell queued yet: a valid lease request waits.
	if code := postJSON(t, base, fabric.PathLease, fabric.LeaseRequest{ProtoVersion: fabric.ProtoVersion, WorkerID: "x", Fingerprint: fp}, &lr); code != http.StatusOK || lr.Status != fabric.LeaseWait {
		t.Fatalf("idle lease = HTTP %d status %q, want 200 %q", code, lr.Status, fabric.LeaseWait)
	}

	// Queue one cell through the CellRunner and lease it.
	type outcome struct {
		res *harness.BenchResult
		err error
	}
	outc := make(chan outcome, 1)
	go func() {
		res, err := c.RunCell(context.Background(), harness.Cell{Index: 0, Bench: opt.Benchmarks[0]}, opt)
		outc <- outcome{res, err}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for {
		postJSON(t, base, fabric.PathLease, fabric.LeaseRequest{ProtoVersion: fabric.ProtoVersion, WorkerID: "x", Fingerprint: fp}, &lr)
		if lr.Status == fabric.LeaseCell || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if lr.Status != fabric.LeaseCell || lr.Bench != "awk" {
		t.Fatalf("queued cell never leased: %+v", lr)
	}
	firstLease := lr.LeaseID

	// Miss every heartbeat: the watchdog requeues the cell, and the
	// original lease's completion must be dropped as stale.
	time.Sleep(200 * time.Millisecond)
	raw, _ := json.Marshal(&harness.BenchResult{Name: "stale"})
	var cr fabric.CompleteReply
	postJSON(t, base, fabric.PathComplete, fabric.CompleteRequest{
		ProtoVersion: fabric.ProtoVersion, WorkerID: "x", LeaseID: firstLease,
		Index: lr.Index, Bench: lr.Bench, Result: raw,
	}, &cr)
	if !cr.Stale || cr.Accepted {
		t.Errorf("expired lease's completion not dropped: %+v", cr)
	}

	// The requeued grant's completion is admitted and reaches RunCell.
	for {
		postJSON(t, base, fabric.PathLease, fabric.LeaseRequest{ProtoVersion: fabric.ProtoVersion, WorkerID: "y", Fingerprint: fp}, &lr)
		if lr.Status == fabric.LeaseCell || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if lr.Status != fabric.LeaseCell || lr.LeaseID == firstLease || lr.Attempt != 1 {
		t.Fatalf("requeued cell not re-leased as the same attempt: %+v", lr)
	}
	raw, _ = json.Marshal(&harness.BenchResult{Name: "awk"})
	postJSON(t, base, fabric.PathComplete, fabric.CompleteRequest{
		ProtoVersion: fabric.ProtoVersion, WorkerID: "y", LeaseID: lr.LeaseID,
		Index: lr.Index, Bench: lr.Bench, Result: raw,
	}, &cr)
	if !cr.Accepted {
		t.Errorf("valid completion rejected: %+v", cr)
	}
	got := <-outc
	if got.err != nil || got.res == nil || got.res.Name != "awk" {
		t.Fatalf("RunCell outcome = (%+v, %v)", got.res, got.err)
	}
	s := metrics.Snapshot()
	if s.Counters["fabric.requeues"] == 0 || s.Counters["fabric.stale_completions"] == 0 {
		t.Errorf("requeue/stale counters not recorded: %v", s.Counters)
	}
}

// TestRemoteFailureClassification checks a worker-reported failure
// arrives at RunCell as an error whose Retryable method carries the
// worker's verdict, so the harness retry policy honors it.
func TestRemoteFailureClassification(t *testing.T) {
	opt := suiteOptions(t, "awk")
	c, base := startFabric(t, opt, fabric.CoordinatorOptions{LeaseTTL: time.Second})
	fp := opt.JournalMeta("").Fingerprint()

	outc := make(chan error, 1)
	go func() {
		_, err := c.RunCell(context.Background(), harness.Cell{Index: 0, Bench: opt.Benchmarks[0]}, opt)
		outc <- err
	}()
	var lr fabric.LeaseReply
	deadline := time.Now().Add(5 * time.Second)
	for {
		postJSON(t, base, fabric.PathLease, fabric.LeaseRequest{ProtoVersion: fabric.ProtoVersion, WorkerID: "x", Fingerprint: fp}, &lr)
		if lr.Status == fabric.LeaseCell || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	var cr fabric.CompleteReply
	postJSON(t, base, fabric.PathComplete, fabric.CompleteRequest{
		ProtoVersion: fabric.ProtoVersion, WorkerID: "x", LeaseID: lr.LeaseID,
		Index: lr.Index, Bench: lr.Bench, Error: "worker panic: boom", Retryable: true,
	}, &cr)
	err := <-outc
	if err == nil {
		t.Fatal("remote failure lost")
	}
	if !harness.Retryable(err) {
		t.Errorf("remote transient failure classified deterministic: %v", err)
	}
}

// TestWorkerRejectsSkewedCoordinator checks the worker's own admission
// gates: a coordinator speaking another protocol version, or whose
// configuration fingerprint the worker cannot reproduce, is refused at
// join time.
func TestWorkerRejectsSkewedCoordinator(t *testing.T) {
	opt := suiteOptions(t, "awk")
	serve := func(cfg fabric.ConfigReply) *httptest.Server {
		mux := http.NewServeMux()
		mux.HandleFunc(fabric.PathConfig, func(w http.ResponseWriter, r *http.Request) {
			_ = json.NewEncoder(w).Encode(cfg)
		})
		ts := httptest.NewServer(mux)
		t.Cleanup(ts.Close)
		return ts
	}
	meta := opt.JournalMeta("")

	ts := serve(fabric.ConfigReply{ProtoVersion: 99, Meta: meta, Fingerprint: meta.Fingerprint()})
	w := &fabric.Worker{Base: ts.URL, JoinWait: time.Second}
	if err := w.Run(context.Background()); err == nil {
		t.Error("worker accepted a version-skewed coordinator")
	}

	ts = serve(fabric.ConfigReply{ProtoVersion: fabric.ProtoVersion, Meta: meta, Fingerprint: "bogus"})
	w = &fabric.Worker{Base: ts.URL, JoinWait: time.Second}
	if err := w.Run(context.Background()); err == nil {
		t.Error("worker accepted a coordinator whose fingerprint it cannot reproduce")
	}
}

// TestWorkerOutageLoop pins the worker's one outage loop on its join: a
// coordinator that rejects the request ends the join at once, and an
// unreachable one is retried, and logged once, until JoinWait has
// passed since the first failure.
func TestWorkerOutageLoop(t *testing.T) {
	reject := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "refused", http.StatusConflict)
	}))
	defer reject.Close()
	start := time.Now()
	err := (&fabric.Worker{Base: reject.URL, JoinWait: 5 * time.Second}).Run(context.Background())
	if took := time.Since(start); err == nil || !strings.Contains(err.Error(), "HTTP 409") || took > 2*time.Second {
		t.Errorf("join against a rejecting coordinator = %v after %v, want the HTTP 409 rejection at once", err, took)
	}

	gone := httptest.NewServer(http.NotFoundHandler())
	gone.Close()
	var log bytes.Buffer
	err = (&fabric.Worker{Base: gone.URL, JoinWait: 200 * time.Millisecond, Progress: &log}).Run(context.Background())
	if err == nil || !strings.Contains(err.Error(), "join: coordinator at "+gone.URL+" unreachable for 200ms") {
		t.Errorf("join against an unreachable coordinator = %v, want the JoinWait give-up", err)
	}
	if n := strings.Count(log.String(), "coordinator unreachable"); n != 1 {
		t.Errorf("logged %d unreachable lines, want 1:\n%s", n, log.String())
	}
}

// TestTornCompletionStream drops the worker's first completion upload
// mid-run; the idempotent retry must still deliver the cell exactly
// once and the suite must succeed.
func TestTornCompletionStream(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real benchmarks")
	}
	opt := suiteOptions(t, "awk")
	c, base := startFabric(t, opt, fabric.CoordinatorOptions{LeaseTTL: time.Second})
	plan, err := faultinject.ParseFabricPlan("drop-completes=1")
	if err != nil {
		t.Fatal(err)
	}
	wait := runWorkers(t, base, 1, func(i int, w *fabric.Worker) { w.Plan = plan })

	ropt := opt
	ropt.CellRunner = c.RunCell
	suite, serr := harness.RunSuite(ropt)
	c.Finish()
	wait()
	if serr != nil {
		t.Fatalf("suite with torn completion stream: %v", serr)
	}
	if len(suite.Benchmarks) != 1 {
		t.Fatalf("suite result malformed: %+v", suite.Benchmarks)
	}
	if _, _, dropped := plan.FiredFabric(); dropped != 1 {
		t.Errorf("fault plan dropped %d uploads, want 1", dropped)
	}
}
