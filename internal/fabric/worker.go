package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"ilplimit/internal/bench"
	"ilplimit/internal/faultinject"
	"ilplimit/internal/harness"
	"ilplimit/internal/journal"
	"ilplimit/internal/limits"
	"ilplimit/internal/telemetry"
)

// protocolError is a non-2xx coordinator reply.  Unlike a transport
// error it is never retried: the coordinator understood the request and
// refused it (protocol version skew, fingerprint mismatch).
type protocolError struct {
	code int
	msg  string
}

// Error renders the rejection with its HTTP status.
func (e *protocolError) Error() string {
	return fmt.Sprintf("coordinator rejected request (HTTP %d): %s", e.code, e.msg)
}

// Worker pulls suite cells from a coordinator, executes them through
// harness.RunCell, and streams completions back.  The zero value plus
// Base is usable; Run applies defaults.
type Worker struct {
	// Base is the coordinator's base URL, e.g. "http://127.0.0.1:7070".
	Base string
	// ID names this worker in leases and telemetry (default "w<pid>").
	ID string
	// Slots is how many cells the worker runs concurrently (default 1;
	// each cell already fans its analysis out across cores).
	Slots int
	// Poll is the idle re-lease interval while the coordinator has no
	// cell available (default 150ms).
	Poll time.Duration
	// JoinWait bounds how long the worker retries the initial config
	// fetch while the coordinator is still coming up (default 10s).
	JoinWait time.Duration
	// RejoinWait bounds how long the worker tolerates a mid-run
	// coordinator outage (default 60s).  While the coordinator is down
	// — restarting after a SIGKILL, say — lease polls, heartbeats, and
	// completion uploads all retry with capped jittered backoff instead
	// of failing their cells, and give up only after RejoinWait of
	// continuous unreachability.
	RejoinWait time.Duration
	// TraceStore, when non-empty, is a worker-local annotated trace
	// store directory (harness.Options.TraceStore).  It is a local
	// execution knob, not part of the run's fingerprint: where (and how
	// warm) a cell runs cannot change its result.
	TraceStore string
	// Progress, when non-nil, receives one line per worker event.
	Progress io.Writer
	// Plan injects deterministic fabric faults (nil in production).
	Plan *faultinject.FabricPlan
	// Exit replaces os.Exit for the plan's kill-after-leases fault, so
	// tests can observe the death instead of dying.
	Exit func(code int)

	logMu sync.Mutex

	done   atomic.Bool
	mu     sync.Mutex
	active map[string]*activeLease
}

// activeLease is one granted cell the worker is currently running.
type activeLease struct {
	id      string
	cancel  context.CancelFunc
	revoked atomic.Bool
}

func (w *Worker) logf(format string, args ...interface{}) {
	if w.Progress == nil {
		return
	}
	w.logMu.Lock()
	defer w.logMu.Unlock()
	fmt.Fprintf(w.Progress, "[worker "+w.ID+"] "+format+"\n", args...)
}

// post sends one JSON request and decodes the JSON reply.  Non-2xx
// replies come back as *protocolError; transport failures as-is.
func (w *Worker) post(ctx context.Context, path string, req, out interface{}) error {
	body, err := json.Marshal(req)
	if err != nil {
		return fmt.Errorf("fabric: marshal %s request: %w", path, err)
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, w.Base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return &protocolError{code: resp.StatusCode, msg: string(bytes.TrimSpace(msg))}
	}
	return json.NewDecoder(io.LimitReader(resp.Body, 16<<20)).Decode(out)
}

// join fetches the coordinator's config, retrying transport failures
// with capped jittered backoff until JoinWait passes — a worker
// routinely starts before the coordinator's listener is up.
func (w *Worker) join(ctx context.Context) (ConfigReply, error) {
	var cfg ConfigReply
	deadline := time.Now().Add(w.JoinWait)
	bo := newBackoff(100*time.Millisecond, 2*time.Second)
	for {
		hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, w.Base+PathConfig, nil)
		if err != nil {
			return cfg, err
		}
		resp, err := http.DefaultClient.Do(hreq)
		if err == nil {
			err = json.NewDecoder(io.LimitReader(resp.Body, 16<<20)).Decode(&cfg)
			resp.Body.Close()
			if err == nil {
				return cfg, nil
			}
		}
		if time.Now().After(deadline) {
			return cfg, fmt.Errorf("fabric: coordinator at %s unreachable for %v: %w", w.Base, w.JoinWait, err)
		}
		select {
		case <-time.After(bo.next()):
		case <-ctx.Done():
			return cfg, ctx.Err()
		}
	}
}

// optionsFromMeta reconstructs the result-affecting harness Options a
// journal.Meta describes.  The caller cross-checks the reconstruction's
// own fingerprint against the coordinator's before running anything.
func optionsFromMeta(m journal.Meta) (harness.Options, error) {
	var opt harness.Options
	if m.SchemaVersion != journal.SchemaVersion {
		return opt, fmt.Errorf("fabric: coordinator journal schema %d, worker speaks %d", m.SchemaVersion, journal.SchemaVersion)
	}
	opt.Scale = m.Scale
	opt.MemWords = m.MemWords
	opt.Optimize = m.Optimize
	opt.StepLimit = m.StepLimit
	for _, s := range m.Models {
		var md limits.Model
		if err := md.UnmarshalText([]byte(s)); err != nil {
			return opt, fmt.Errorf("fabric: %w", err)
		}
		opt.Models = append(opt.Models, md)
	}
	for _, name := range m.Benchmarks {
		b, err := bench.ByName(name)
		if err != nil {
			return opt, fmt.Errorf("fabric: %w", err)
		}
		opt.Benchmarks = append(opt.Benchmarks, b)
	}
	return opt, nil
}

// Run joins the coordinator, verifies protocol version and
// configuration fingerprint, then pulls and executes cells until the
// coordinator reports the run done (nil) or the context is canceled.
func (w *Worker) Run(ctx context.Context) error {
	if w.ID == "" {
		w.ID = fmt.Sprintf("w%d", os.Getpid())
	}
	if w.Slots < 1 {
		w.Slots = 1
	}
	if w.Poll <= 0 {
		w.Poll = 150 * time.Millisecond
	}
	if w.JoinWait <= 0 {
		w.JoinWait = 10 * time.Second
	}
	if w.RejoinWait <= 0 {
		w.RejoinWait = 60 * time.Second
	}
	if w.Exit == nil {
		w.Exit = os.Exit
	}
	w.active = make(map[string]*activeLease)

	cfg, err := w.join(ctx)
	if err != nil {
		return err
	}
	if cfg.ProtoVersion != ProtoVersion {
		return fmt.Errorf("fabric: coordinator protocol version %d, worker speaks %d", cfg.ProtoVersion, ProtoVersion)
	}
	opt, err := optionsFromMeta(cfg.Meta)
	if err != nil {
		return err
	}
	// Bit-for-bit compatibility gate: if this binary's defaults drifted
	// so the reconstructed options fingerprint differently, its results
	// would not be interchangeable with the coordinator's — refuse.
	if fp := opt.JournalMeta("").Fingerprint(); fp != cfg.Fingerprint {
		return fmt.Errorf("fabric: reconstructed configuration fingerprint differs from coordinator's; version-skewed worker binary")
	}
	opt.TraceStore = w.TraceStore
	opt.Progress = w.Progress
	opt.Watchdog = time.Duration(cfg.WatchdogMillis) * time.Millisecond
	ttl := time.Duration(cfg.LeaseTTLMillis) * time.Millisecond

	w.logf("joined %s: %d cells, %d models, lease TTL %v", w.Base, len(opt.Benchmarks), len(opt.Models), ttl)

	hbCtx, stopHB := context.WithCancel(ctx)
	defer stopHB()
	go w.heartbeatLoop(hbCtx, ttl)

	errs := make([]error, w.Slots)
	var wg sync.WaitGroup
	for s := 0; s < w.Slots; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			errs[s] = w.slot(ctx, opt, cfg)
		}(s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// heartbeatLoop refreshes the worker's leases a few times per TTL and
// learns about revocations (its cell was requeued elsewhere — cancel
// it) and run completion.  Transport errors enter the shared jittered
// backoff (capped below the normal interval, so a recovering
// coordinator hears from the worker before the lease TTL burns down)
// instead of just skipping a tick.  A partitioned plan silences it,
// simulating the network fault the lease watchdog exists for.
func (w *Worker) heartbeatLoop(ctx context.Context, ttl time.Duration) {
	interval := ttl / 3
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	bo := newBackoff(interval/4, interval)
	wait := interval
	for {
		select {
		case <-ctx.Done():
			return
		case <-time.After(wait):
		}
		wait = interval
		if w.Plan.Partitioned() {
			continue
		}
		req := HeartbeatRequest{WorkerID: w.ID}
		w.mu.Lock()
		for id := range w.active {
			req.LeaseIDs = append(req.LeaseIDs, id)
		}
		w.mu.Unlock()
		var rep HeartbeatReply
		if err := w.post(ctx, PathHeartbeat, req, &rep); err != nil {
			wait = bo.next() // transient; retry sooner than a full tick
			continue
		}
		bo.reset()
		if rep.Done {
			w.done.Store(true)
		}
		for _, id := range rep.Revoked {
			w.mu.Lock()
			al := w.active[id]
			w.mu.Unlock()
			if al != nil && !al.revoked.Swap(true) {
				w.logf("lease %s revoked by coordinator; canceling cell", id)
				al.cancel()
			}
		}
	}
}

// slot is one cell-execution loop: lease, run, complete, repeat.  A
// coordinator outage mid-run (restart after SIGKILL) is ridden out
// with capped jittered backoff for up to RejoinWait before the slot
// gives up.
func (w *Worker) slot(ctx context.Context, opt harness.Options, cfg ConfigReply) error {
	bo := newBackoff(w.Poll, 2*time.Second)
	var downSince time.Time
	for {
		if w.done.Load() {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		var rep LeaseReply
		err := w.post(ctx, PathLease, LeaseRequest{ProtoVersion: ProtoVersion, WorkerID: w.ID, Fingerprint: cfg.Fingerprint}, &rep)
		if err != nil {
			var pe *protocolError
			if ctx.Err() != nil {
				return ctx.Err()
			}
			if isProtocol(err, &pe) {
				return pe // version or fingerprint rejection: fatal
			}
			if downSince.IsZero() {
				downSince = time.Now()
				w.logf("coordinator unreachable (%v); backing off up to %v", err, w.RejoinWait)
			}
			if time.Since(downSince) > w.RejoinWait {
				return fmt.Errorf("fabric: coordinator unreachable for %v: %w", w.RejoinWait, err)
			}
			select {
			case <-time.After(bo.next()):
			case <-ctx.Done():
				return ctx.Err()
			}
			continue
		}
		if !downSince.IsZero() {
			w.logf("coordinator reachable again after %v", time.Since(downSince).Round(time.Millisecond))
		}
		downSince = time.Time{}
		bo.reset()
		switch rep.Status {
		case LeaseWait:
			time.Sleep(w.Poll)
		case LeaseDone:
			w.done.Store(true)
			return nil
		case LeaseCell:
			if w.Plan.LeaseAcquired() {
				w.logf("fault plan: dying after lease %s", rep.LeaseID)
				w.Exit(137)
			}
			w.runLeased(ctx, opt, cfg, rep)
		default:
			return fmt.Errorf("fabric: unknown lease status %q", rep.Status)
		}
	}
}

// isProtocol reports whether err is (or wraps) a *protocolError.
func isProtocol(err error, out **protocolError) bool {
	pe, ok := err.(*protocolError)
	if ok {
		*out = pe
	}
	return ok
}

// runLeased executes one granted cell and uploads its outcome.
func (w *Worker) runLeased(ctx context.Context, opt harness.Options, cfg ConfigReply, rep LeaseReply) {
	cellCtx, cancel := context.WithCancel(ctx)
	al := &activeLease{id: rep.LeaseID, cancel: cancel}
	w.mu.Lock()
	w.active[rep.LeaseID] = al
	w.mu.Unlock()
	defer func() {
		cancel()
		w.mu.Lock()
		delete(w.active, rep.LeaseID)
		w.mu.Unlock()
	}()

	req := CompleteRequest{
		ProtoVersion: ProtoVersion,
		WorkerID:     w.ID,
		LeaseID:      rep.LeaseID,
		Index:        rep.Index,
		Bench:        rep.Bench,
	}
	copt := opt
	copt.Context = cellCtx
	if cfg.MetricsEnabled {
		copt.Metrics = telemetry.NewRegistry()
	}

	switch {
	case rep.Index < 0 || rep.Index >= len(opt.Benchmarks) || opt.Benchmarks[rep.Index].Name != rep.Bench:
		// The grant does not match the configuration both sides
		// fingerprinted; refuse deterministically rather than run the
		// wrong cell.
		req.Error = fmt.Sprintf("leased cell %d (%s) is not in the agreed benchmark list", rep.Index, rep.Bench)
	default:
		w.logf("running cell %d (%s) under %s", rep.Index, rep.Bench, rep.LeaseID)
		res, err := harness.RunCell(harness.Cell{Index: rep.Index, Bench: opt.Benchmarks[rep.Index]}, copt)
		if err != nil {
			req.Error = err.Error()
			req.Retryable = harness.Retryable(err)
		} else {
			raw, merr := json.Marshal(res)
			if merr != nil {
				req.Error = fmt.Sprintf("marshal result: %v", merr)
				req.Retryable = true
			} else {
				req.Result = raw
			}
		}
		if copt.Metrics != nil {
			req.Telemetry = copt.Metrics.Snapshot()
		}
	}
	w.uploadComplete(ctx, req, al)
}

// uploadComplete streams one completion, retrying transport failures
// with the shared capped jittered backoff for up to RejoinWait — long
// enough for a SIGKILLed coordinator to restart and re-admit the
// upload; its admission (and the journal behind it) make retried
// uploads idempotent.  Revoked leases and partitioned plans suppress
// the upload: the coordinator has already moved on.
func (w *Worker) uploadComplete(ctx context.Context, req CompleteRequest, al *activeLease) {
	bo := newBackoff(w.Poll, 2*time.Second)
	deadline := time.Now().Add(w.RejoinWait)
	for {
		if al.revoked.Load() {
			w.logf("dropping completion for revoked lease %s", req.LeaseID)
			return
		}
		if w.Plan.Partitioned() {
			w.logf("fault plan: partitioned; suppressing completion for %s", req.LeaseID)
			return
		}
		var err error
		if w.Plan.DropComplete() {
			err = fmt.Errorf("fabric: fault plan dropped completion upload")
		} else {
			var rep CompleteReply
			err = w.post(ctx, PathComplete, req, &rep)
			if err == nil {
				if rep.Stale {
					w.logf("completion for %s was stale; dropped", req.LeaseID)
				} else {
					w.Plan.CellCompleted()
				}
				return
			}
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			w.logf("giving up on completion for %s: %v", req.LeaseID, err)
			return
		}
		w.logf("completion upload for %s failed (%v); retrying", req.LeaseID, err)
		select {
		case <-time.After(bo.next()):
		case <-ctx.Done():
			return
		}
	}
}
