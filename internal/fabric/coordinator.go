package fabric

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"ilplimit/internal/harness"
	"ilplimit/internal/journal"
	"ilplimit/internal/telemetry"
)

// RemoteError is a cell failure reported by a worker.  It satisfies the
// harness retry policy's `Retryable() bool` hook, so a remote failure is
// retried (or not) exactly as the worker that saw the original error
// classified it.
type RemoteError struct {
	// Bench is the failing cell's benchmark.
	Bench string
	// Worker identifies the worker that reported the failure.
	Worker string
	// Msg is the worker's rendered error message.
	Msg string
	// Transient records the worker-side harness.Retryable verdict.
	Transient bool
}

// Error renders the failure with its origin worker.
func (e *RemoteError) Error() string {
	return fmt.Sprintf("%s: worker %s: %s", e.Bench, e.Worker, e.Msg)
}

// Retryable reports the worker-side transient/deterministic verdict.
func (e *RemoteError) Retryable() bool { return e.Transient }

// fabricCanceled marks a coordinator-side cancellation: deterministic
// (never retried), like local vm.ErrCanceled failures.
type fabricCanceled struct {
	bench string
	err   error
}

func (e *fabricCanceled) Error() string {
	return fmt.Sprintf("%s: fabric run canceled (%v)", e.bench, e.err)
}
func (e *fabricCanceled) Retryable() bool { return false }
func (e *fabricCanceled) Unwrap() error   { return e.err }

// CoordinatorOptions configure a Coordinator.
type CoordinatorOptions struct {
	// LeaseTTL is how long a granted cell survives without a heartbeat
	// before it is revoked and requeued (default 10s).  The expiry scan
	// runs at TTL/4 granularity, mirroring the replay ring's stall
	// watchdog.
	LeaseTTL time.Duration
	// Watchdog propagates harness.Options.Watchdog to workers.
	Watchdog time.Duration
	// Metrics, when non-nil, records fabric counters (leases, requeues,
	// stale completions, per-worker cells) and merges the per-cell
	// telemetry workers attach to completions.  Non-nil also asks
	// workers to capture that telemetry at all.
	Metrics *telemetry.Registry
	// Progress, when non-nil, receives one line per fabric event
	// (lease, completion, requeue); writes are serialized internally.
	Progress io.Writer
	// Recovery, when non-nil, is the coordinator's crash-recovery
	// journal (a journal.OpenNamed file beside the run journal, never
	// the run journal itself).  Every lease grant and admitted
	// completion is persisted to it before being revealed, and a
	// coordinator built over a journal with salvaged records
	// reconstructs the lease table and completed-cell outcomes, so a
	// SIGKILLed coordinator restarted with the same journal resumes the
	// distributed run instead of losing it.  The caller closes it.
	Recovery *journal.Journal
}

// cellOutcome is one terminal attempt outcome delivered to RunCell.
type cellOutcome struct {
	res *harness.BenchResult
	err error
}

// cellState tracks one enqueued cell attempt.
type cellState struct {
	cell    harness.Cell
	attempt int
	leaseID string // "" while queued, the granting lease while out
	ch      chan cellOutcome
}

// lease is one outstanding grant.
type lease struct {
	id       string
	index    int
	worker   string
	deadline time.Time
}

// workerState is the coordinator's view of one worker.
type workerState struct {
	lastSeen time.Time
	sawDone  bool
	cells    int64
}

// Coordinator shards suite cells across pulling workers and admits
// exactly one completion per cell.  Plug RunCell into
// harness.Options.CellRunner, serve Handler over HTTP, and call Start;
// after RunSuite returns call Finish (then optionally WaitDrained) so
// workers learn the run is over, and Close to stop the lease watchdog.
// All methods are safe for concurrent use.
type Coordinator struct {
	o   CoordinatorOptions
	cfg ConfigReply

	logMu sync.Mutex

	mu        sync.Mutex
	queue     []int
	cells     map[int]*cellState
	leases    map[string]*lease
	workers   map[string]*workerState
	attempts  map[int]int
	rec       *recovered // state salvaged from a prior incarnation
	nextLease int64
	finished  bool

	stopWatch chan struct{}
	startOnce sync.Once
	stopOnce  sync.Once
}

// NewCoordinator builds a coordinator for one run.  meta is the run's
// result-affecting configuration fingerprint (harness
// Options.JournalMeta), which every worker must reproduce bit-for-bit
// before it is allowed to lease cells.
func NewCoordinator(meta journal.Meta, o CoordinatorOptions) *Coordinator {
	if o.LeaseTTL <= 0 {
		o.LeaseTTL = 10 * time.Second
	}
	c := &Coordinator{
		o: o,
		cfg: ConfigReply{
			ProtoVersion:   ProtoVersion,
			Meta:           meta,
			Fingerprint:    meta.Fingerprint(),
			LeaseTTLMillis: o.LeaseTTL.Milliseconds(),
			WatchdogMillis: o.Watchdog.Milliseconds(),
			MetricsEnabled: o.Metrics != nil,
		},
		cells:     make(map[int]*cellState),
		leases:    make(map[string]*lease),
		workers:   make(map[string]*workerState),
		attempts:  make(map[int]int),
		stopWatch: make(chan struct{}),
	}
	if o.Recovery != nil {
		c.rec = replayRecovery(o.Recovery)
		c.nextLease = c.rec.nextLease
		if n := len(c.rec.leases); n > 0 {
			c.o.Metrics.Counter("fabric.recovered_leases").Add(int64(n))
			c.logf("recovered %d outstanding lease(s) from a previous coordinator", n)
		}
		if n := len(c.rec.outcomes); n > 0 {
			c.o.Metrics.Counter("fabric.recovered_cells").Add(int64(n))
			c.logf("recovered %d completed cell(s) from a previous coordinator", n)
		}
	}
	return c
}

// logf serializes progress lines; no-op without a Progress writer.
func (c *Coordinator) logf(format string, args ...interface{}) {
	if c.o.Progress == nil {
		return
	}
	c.logMu.Lock()
	defer c.logMu.Unlock()
	fmt.Fprintf(c.o.Progress, "[fabric] "+format+"\n", args...)
}

// Start launches the lease watchdog: a scan every LeaseTTL/4 requeues
// cells whose worker missed its heartbeats.  Idempotent.
func (c *Coordinator) Start() {
	c.startOnce.Do(func() {
		interval := c.o.LeaseTTL / 4
		if interval < 5*time.Millisecond {
			interval = 5 * time.Millisecond
		}
		go func() {
			t := time.NewTicker(interval)
			defer t.Stop()
			for {
				select {
				case <-c.stopWatch:
					return
				case now := <-t.C:
					c.expire(now)
				}
			}
		}()
	})
}

// expire revokes leases past their heartbeat deadline and requeues
// their cells at the head of the queue, so a lost worker's cell is the
// very next one stolen.
func (c *Coordinator) expire(now time.Time) {
	type requeued struct {
		id, worker, bench string
		index             int
	}
	var out []requeued
	c.mu.Lock()
	for id, l := range c.leases {
		if now.Before(l.deadline) {
			continue
		}
		delete(c.leases, id)
		cs := c.cells[l.index]
		if cs != nil && cs.leaseID == id {
			cs.leaseID = ""
			c.queue = append([]int{l.index}, c.queue...)
			out = append(out, requeued{id: id, worker: l.worker, bench: cs.cell.Bench.Name, index: l.index})
		}
	}
	c.mu.Unlock()
	for _, r := range out {
		c.o.Metrics.Counter("fabric.requeues").Inc()
		c.o.Metrics.Counter("fabric.worker." + r.worker + ".requeued").Inc()
		c.logf("lease %s on worker %s missed heartbeats; requeued cell %d (%s)", r.id, r.worker, r.index, r.bench)
	}
}

// Finish marks the run complete: subsequent lease and heartbeat replies
// tell workers to exit.  Idempotent.
func (c *Coordinator) Finish() {
	c.mu.Lock()
	c.finished = true
	c.mu.Unlock()
}

// WaitDrained blocks until every recently-active worker has been told
// the run is done, or the timeout passes — so a coordinator can shut
// its listener without stranding workers mid-poll.  Workers silent for
// more than two lease TTLs (crashed or partitioned) are not waited for.
func (c *Coordinator) WaitDrained(timeout time.Duration) {
	deadline := time.Now().Add(timeout)
	for {
		c.mu.Lock()
		drained := true
		cutoff := time.Now().Add(-2 * c.o.LeaseTTL)
		for _, w := range c.workers {
			if !w.sawDone && w.lastSeen.After(cutoff) {
				drained = false
			}
		}
		c.mu.Unlock()
		if drained || time.Now().After(deadline) {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// Close stops the lease watchdog.  Idempotent.
func (c *Coordinator) Close() {
	c.stopOnce.Do(func() { close(c.stopWatch) })
}

// RunCell is the harness.CellRunner: it queues the cell for the next
// pulling worker and blocks until exactly one completion is admitted
// for it (or the run's context is canceled).  Harness-level retries
// call it again, producing a fresh attempt with a fresh lease.
func (c *Coordinator) RunCell(ctx context.Context, cell harness.Cell, _ harness.Options) (*harness.BenchResult, error) {
	ch := c.enqueue(cell)
	select {
	case out := <-ch:
		return out.res, out.err
	case <-ctx.Done():
		c.abandon(cell.Index)
		// A completion may have been admitted between cancellation and
		// abandonment; prefer the real outcome when it exists.
		select {
		case out := <-ch:
			return out.res, out.err
		default:
		}
		return nil, &fabricCanceled{bench: cell.Bench.Name, err: ctx.Err()}
	}
}

// enqueue registers a fresh attempt for the cell and makes it
// stealable.  Recovered state is consumed here: a completion admitted
// by a previous coordinator incarnation is delivered immediately
// (consume-once, so a journaled failure still earns a live retry), and
// an outstanding recovered lease re-installs into the lease table with
// a fresh TTL instead of re-queueing — its worker is presumed still
// computing and will complete under the old lease ID.
func (c *Coordinator) enqueue(cell harness.Cell) chan cellOutcome {
	ch := make(chan cellOutcome, 1)
	c.mu.Lock()
	c.attempts[cell.Index]++
	if c.rec != nil {
		if outs := c.rec.outcomes[cell.Index]; len(outs) > 0 {
			cr := outs[0]
			c.rec.outcomes[cell.Index] = outs[1:]
			c.mu.Unlock()
			c.o.Metrics.Counter("fabric.cells_replayed").Inc()
			c.logf("cell %d (%s) outcome replayed from recovery journal", cell.Index, cell.Bench.Name)
			ch <- cr.outcome()
			return ch
		}
		if lr, ok := c.rec.leases[cell.Index]; ok && lr.Bench == cell.Bench.Name {
			delete(c.rec.leases, cell.Index)
			delete(c.rec.leaseIDs, lr.ID)
			cs := &cellState{cell: cell, attempt: c.attempts[cell.Index], leaseID: lr.ID, ch: ch}
			c.cells[cell.Index] = cs
			c.leases[lr.ID] = &lease{id: lr.ID, index: cell.Index, worker: lr.Worker, deadline: time.Now().Add(c.o.LeaseTTL)}
			c.mu.Unlock()
			c.o.Metrics.Counter("fabric.leases_reattached").Inc()
			c.logf("cell %d (%s) re-attached to recovered lease %s on worker %s", cell.Index, cell.Bench.Name, lr.ID, lr.Worker)
			return ch
		}
	}
	c.cells[cell.Index] = &cellState{cell: cell, attempt: c.attempts[cell.Index], ch: ch}
	c.queue = append(c.queue, cell.Index)
	c.mu.Unlock()
	c.o.Metrics.Counter("fabric.cells_enqueued").Inc()
	return ch
}

// abandon withdraws a canceled cell: it can no longer be leased, and a
// late completion for it is dropped as stale.
func (c *Coordinator) abandon(index int) {
	c.mu.Lock()
	if cs := c.cells[index]; cs != nil {
		if cs.leaseID != "" {
			delete(c.leases, cs.leaseID)
		}
		delete(c.cells, index)
	}
	c.mu.Unlock()
}

// Handler returns the coordinator's HTTP handler, serving the fabric
// wire protocol (PathConfig, PathLease, PathComplete, PathHeartbeat).
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET "+PathConfig, c.handleConfig)
	mux.HandleFunc("POST "+PathLease, c.handleLease)
	mux.HandleFunc("POST "+PathComplete, c.handleComplete)
	mux.HandleFunc("POST "+PathHeartbeat, c.handleHeartbeat)
	return mux
}

// reply writes one JSON message.
func reply(w http.ResponseWriter, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

// decode parses one JSON request body, bounding it defensively.
func decode(w http.ResponseWriter, r *http.Request, v interface{}) bool {
	if err := json.NewDecoder(io.LimitReader(r.Body, 16<<20)).Decode(v); err != nil {
		http.Error(w, "fabric: undecodable request: "+err.Error(), http.StatusBadRequest)
		return false
	}
	return true
}

// touch updates the worker's liveness record (caller holds c.mu).
func (c *Coordinator) touch(id string) *workerState {
	ws := c.workers[id]
	if ws == nil {
		ws = &workerState{}
		c.workers[id] = ws
	}
	ws.lastSeen = time.Now()
	return ws
}

func (c *Coordinator) handleConfig(w http.ResponseWriter, _ *http.Request) {
	reply(w, c.cfg)
}

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if !decode(w, r, &req) {
		return
	}
	if req.ProtoVersion != ProtoVersion {
		http.Error(w, fmt.Sprintf("fabric: protocol version %d, coordinator speaks %d", req.ProtoVersion, ProtoVersion), http.StatusBadRequest)
		return
	}
	if req.Fingerprint != c.cfg.Fingerprint {
		http.Error(w, "fabric: configuration fingerprint mismatch; worker binary or options skewed from the coordinator", http.StatusConflict)
		return
	}
	var out LeaseReply
	c.mu.Lock()
	ws := c.touch(req.WorkerID)
	for len(c.queue) > 0 {
		i := c.queue[0]
		c.queue = c.queue[1:]
		cs := c.cells[i]
		if cs == nil || cs.leaseID != "" {
			continue // abandoned, or requeued and already re-leased
		}
		c.nextLease++
		id := fmt.Sprintf("lease-%d", c.nextLease)
		cs.leaseID = id
		c.leases[id] = &lease{id: id, index: i, worker: req.WorkerID, deadline: time.Now().Add(c.o.LeaseTTL)}
		out = LeaseReply{Status: LeaseCell, LeaseID: id, Index: i, Bench: cs.cell.Bench.Name, Attempt: cs.attempt}
		break
	}
	if out.Status == "" {
		if c.finished {
			out.Status = LeaseDone
			ws.sawDone = true
		} else {
			out.Status = LeaseWait
		}
	}
	c.mu.Unlock()
	if out.Status == LeaseCell {
		// Persist the grant before revealing it, so a coordinator that
		// dies right after replying still knows who holds the cell.
		c.persist(RecordLease, leaseRecord{ID: out.LeaseID, Index: out.Index, Bench: out.Bench, Worker: req.WorkerID})
		c.o.Metrics.Counter("fabric.leases").Inc()
		c.o.Metrics.Counter("fabric.worker." + req.WorkerID + ".leases").Inc()
		c.logf("cell %d (%s) leased to worker %s as %s (attempt %d)", out.Index, out.Bench, req.WorkerID, out.LeaseID, out.Attempt)
	}
	reply(w, out)
}

func (c *Coordinator) handleComplete(w http.ResponseWriter, r *http.Request) {
	var req CompleteRequest
	if !decode(w, r, &req) {
		return
	}
	if req.ProtoVersion != ProtoVersion {
		http.Error(w, fmt.Sprintf("fabric: protocol version %d, coordinator speaks %d", req.ProtoVersion, ProtoVersion), http.StatusBadRequest)
		return
	}
	var (
		cs    *cellState
		stale bool
		early bool
	)
	c.mu.Lock()
	ws := c.touch(req.WorkerID)
	l, ok := c.leases[req.LeaseID]
	if !ok || l.index != req.Index {
		// Not in the live lease table — but after a coordinator restart
		// a worker can finish its cell before RunSuite re-enqueues it.
		// A completion naming a recovered lease is admitted early: it
		// is journaled and stashed for the enqueue to consume.
		if c.rec != nil {
			if lr, lok := c.rec.leases[req.Index]; lok && lr.ID == req.LeaseID && lr.Bench == req.Bench {
				delete(c.rec.leases, req.Index)
				delete(c.rec.leaseIDs, lr.ID)
				early = true
				ws.cells++
			}
		}
		stale = !early
	} else {
		cs = c.cells[l.index]
		if cs == nil || cs.leaseID != req.LeaseID || cs.cell.Bench.Name != req.Bench {
			stale, cs = true, nil
		} else {
			// Admission point: exactly one completion per cell attempt
			// passes this gate; the lease and cell leave the tables so
			// every later claim is stale.
			delete(c.leases, req.LeaseID)
			delete(c.cells, l.index)
			ws.cells++
		}
	}
	c.mu.Unlock()

	if stale {
		c.o.Metrics.Counter("fabric.stale_completions").Inc()
		c.logf("stale completion for cell %d (%s) from worker %s dropped", req.Index, req.Bench, req.WorkerID)
		reply(w, CompleteReply{Stale: true})
		return
	}

	// Persist the admitted completion before delivering or replying, so
	// a coordinator killed immediately after still replays it.
	c.persist(RecordCell, cellRecord{
		Index: req.Index, Bench: req.Bench, LeaseID: req.LeaseID, Worker: req.WorkerID,
		Result: req.Result, Error: req.Error, Retryable: req.Retryable,
	})

	if early {
		c.mu.Lock()
		c.rec.outcomes[req.Index] = append(c.rec.outcomes[req.Index], cellRecord{
			Index: req.Index, Bench: req.Bench, LeaseID: req.LeaseID, Worker: req.WorkerID,
			Result: req.Result, Error: req.Error, Retryable: req.Retryable,
		})
		c.mu.Unlock()
		c.o.Metrics.Counter("fabric.cells_done").Inc()
		c.o.Metrics.Counter("fabric.worker." + req.WorkerID + ".cells_done").Inc()
		c.o.Metrics.Import("", req.Telemetry)
		c.logf("cell %d (%s) completed early by worker %s (pre-enqueue admission)", req.Index, req.Bench, req.WorkerID)
		reply(w, CompleteReply{Accepted: true})
		return
	}

	var out cellOutcome
	switch {
	case req.Error != "":
		out.err = &RemoteError{Bench: req.Bench, Worker: req.WorkerID, Msg: req.Error, Transient: req.Retryable}
	default:
		res := new(harness.BenchResult)
		if err := json.Unmarshal(req.Result, res); err != nil {
			// CRC-clean HTTP body but an unparseable result: version
			// skew the fingerprint missed, or a torn stream.  Surface
			// as a transient remote failure so the retry policy re-runs
			// the cell rather than poisoning the suite.
			out.err = &RemoteError{Bench: req.Bench, Worker: req.WorkerID, Msg: "undecodable result: " + err.Error(), Transient: true}
		} else {
			out.res = res
		}
	}
	c.o.Metrics.Counter("fabric.cells_done").Inc()
	c.o.Metrics.Counter("fabric.worker." + req.WorkerID + ".cells_done").Inc()
	c.o.Metrics.Import("", req.Telemetry)
	c.logf("cell %d (%s) completed by worker %s", req.Index, req.Bench, req.WorkerID)
	cs.ch <- out
	reply(w, CompleteReply{Accepted: true})
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req HeartbeatRequest
	if !decode(w, r, &req) {
		return
	}
	var out HeartbeatReply
	now := time.Now()
	c.mu.Lock()
	ws := c.touch(req.WorkerID)
	for _, id := range req.LeaseIDs {
		if l, ok := c.leases[id]; ok && l.worker == req.WorkerID {
			l.deadline = now.Add(c.o.LeaseTTL)
			continue
		}
		if c.rec != nil {
			if idx, ok := c.rec.leaseIDs[id]; ok && c.rec.leases[idx].Worker == req.WorkerID {
				// A recovered lease not yet re-enqueued by RunSuite:
				// the worker is alive and computing — don't revoke.
				continue
			}
		}
		out.Revoked = append(out.Revoked, id)
	}
	out.Done = c.finished
	if out.Done {
		ws.sawDone = true
	}
	c.mu.Unlock()
	c.o.Metrics.Counter("fabric.heartbeats").Inc()
	reply(w, out)
}
