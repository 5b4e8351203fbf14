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
	// before it is revoked and requeued (default 10s).  A lapsed lease
	// is revoked at the next call that reads the lease table — a lease
	// poll, heartbeat or completion from any worker, or a RunCell — so
	// a fabric with a live worker checks at least once per heartbeat or
	// poll interval, and no goroutine watches the clock.
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
	// coordinator built over a journal with salvaged records folds its
	// leases and completed-cell outcomes into the cell table, so a
	// SIGKILLed coordinator restarted with the same journal resumes the
	// distributed run instead of losing it.  The caller closes it.
	Recovery *journal.Journal
}

// cellOutcome is one terminal attempt outcome delivered to RunCell.
type cellOutcome struct {
	res *harness.BenchResult
	err error
}

// cellState is one cell's row in the coordinator's table.  A row
// restored from the recovery journal is no different from a live one.
type cellState struct {
	bench    string
	enqueued int // RunCell attempts so far, reported as LeaseReply.Attempt
	// The live lease; leaseID is "" when the cell has none.
	leaseID  string
	worker   string
	deadline time.Time
	// waiter receives the outcome of the RunCell attempt waiting on the
	// cell; nil when none waits.
	waiter chan cellOutcome
	// pending holds admitted outcomes no attempt has taken yet, FIFO (a
	// cell can complete more than once across harness retries).
	pending []cellOutcome
}

// workerState is the coordinator's view of one worker.
type workerState struct {
	lastSeen time.Time
	sawDone  bool
}

// Coordinator shards suite cells across pulling workers and admits
// exactly one completion per lease.  Plug RunCell into
// harness.Options.CellRunner and serve Handler over HTTP; after
// RunSuite returns call Finish (then optionally WaitDrained) so workers
// learn the run is over.  The coordinator starts no goroutine.  All
// methods are safe for concurrent use.
type Coordinator struct {
	o   CoordinatorOptions
	cfg ConfigReply

	logMu sync.Mutex

	mu        sync.Mutex
	queue     []int
	cells     map[int]*cellState
	leases    map[string]int // live lease ID -> cell index
	workers   map[string]*workerState
	nextLease int64
	finished  bool
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
		cells:   make(map[int]*cellState),
		leases:  make(map[string]int),
		workers: make(map[string]*workerState),
	}
	if o.Recovery != nil {
		c.fold(o.Recovery)
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

// cell returns the table row of cell index i, adding an empty one
// (caller holds c.mu).
func (c *Coordinator) cell(i int) *cellState {
	cs := c.cells[i]
	if cs == nil {
		cs = &cellState{}
		c.cells[i] = cs
	}
	return cs
}

// endLease ends the cell's live lease, if any, so every later claim on
// it is stale (caller holds c.mu).
func (c *Coordinator) endLease(cs *cellState) {
	delete(c.leases, cs.leaseID)
	cs.leaseID = ""
}

// lapse ends every lease past its deadline.  Each call that reads the
// lease table runs it first, so no goroutine watches the clock.  A cell
// with a waiting attempt goes back to the head of the queue, so a lost
// worker's cell is the very next one stolen.
func (c *Coordinator) lapse(now time.Time) {
	var requeued []string
	c.mu.Lock()
	for id, i := range c.leases {
		cs := c.cells[i]
		if now.Before(cs.deadline) {
			continue
		}
		c.endLease(cs)
		if cs.waiter != nil {
			c.queue = append([]int{i}, c.queue...)
			c.o.Metrics.Counter("fabric.requeues").Inc()
			c.o.Metrics.Counter("fabric.worker." + cs.worker + ".requeued").Inc()
			requeued = append(requeued, fmt.Sprintf("lease %s on worker %s missed heartbeats; requeued cell %d (%s)", id, cs.worker, i, cs.bench))
		}
	}
	c.mu.Unlock()
	for _, line := range requeued {
		c.logf("%s", line)
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
		c.withdraw(cell.Index)
		// A completion may have been admitted between cancellation and
		// withdrawal; prefer the real outcome when it exists.
		select {
		case out := <-ch:
			return out.res, out.err
		default:
		}
		return nil, &fabricCanceled{bench: cell.Bench.Name, err: ctx.Err()}
	}
}

// enqueue registers a fresh attempt for the cell.  A pending outcome is
// delivered at once (one per attempt, so a journaled failure still
// earns a live retry); a live lease — one a previous incarnation
// granted, whose worker is presumed still computing — is kept with a
// fresh TTL; otherwise the cell joins the queue.
func (c *Coordinator) enqueue(cell harness.Cell) chan cellOutcome {
	ch := make(chan cellOutcome, 1)
	now := time.Now()
	c.lapse(now)
	c.mu.Lock()
	cs := c.cell(cell.Index)
	cs.bench = cell.Bench.Name
	cs.enqueued++
	switch {
	case len(cs.pending) > 0:
		ch <- cs.pending[0]
		cs.pending = cs.pending[1:]
		c.mu.Unlock()
		c.o.Metrics.Counter("fabric.cells_replayed").Inc()
		c.logf("cell %d (%s) outcome replayed from recovery journal", cell.Index, cell.Bench.Name)
	case cs.leaseID != "":
		cs.deadline, cs.waiter = now.Add(c.o.LeaseTTL), ch
		id, worker := cs.leaseID, cs.worker
		c.mu.Unlock()
		c.o.Metrics.Counter("fabric.leases_reattached").Inc()
		c.logf("cell %d (%s) re-attached to recovered lease %s on worker %s", cell.Index, cell.Bench.Name, id, worker)
	default:
		cs.waiter = ch
		c.queue = append(c.queue, cell.Index)
		c.mu.Unlock()
		c.o.Metrics.Counter("fabric.cells_enqueued").Inc()
	}
	return ch
}

// withdraw takes a canceled attempt's cell out of play: its lease and
// pending outcomes go, it can no longer be leased, and a late
// completion for it is dropped as stale.
func (c *Coordinator) withdraw(index int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if cs := c.cells[index]; cs != nil {
		c.endLease(cs)
		cs.waiter, cs.pending = nil, nil
	}
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
	now := time.Now()
	c.lapse(now)
	c.mu.Lock()
	ws := c.touch(req.WorkerID)
	for len(c.queue) > 0 {
		i := c.queue[0]
		c.queue = c.queue[1:]
		cs := c.cells[i]
		if cs.waiter == nil || cs.leaseID != "" {
			continue // withdrawn, or requeued and already re-leased
		}
		c.nextLease++
		cs.leaseID, cs.worker, cs.deadline = fmt.Sprintf("lease-%d", c.nextLease), req.WorkerID, now.Add(c.o.LeaseTTL)
		c.leases[cs.leaseID] = i
		out = LeaseReply{Status: LeaseCell, LeaseID: cs.leaseID, Index: i, Bench: cs.bench, Attempt: cs.enqueued}
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
	var waiter chan cellOutcome
	c.lapse(time.Now())
	c.mu.Lock()
	c.touch(req.WorkerID)
	i, ok := c.leases[req.LeaseID]
	cs := c.cells[i]
	if ok = ok && i == req.Index && cs.bench == req.Bench; ok {
		// Admission point: exactly one completion per lease passes this
		// gate; the lease ends, so every later claim on it is stale.
		c.endLease(cs)
		waiter, cs.waiter = cs.waiter, nil
	}
	c.mu.Unlock()

	if !ok {
		c.o.Metrics.Counter("fabric.stale_completions").Inc()
		c.logf("stale completion for cell %d (%s) from worker %s dropped", req.Index, req.Bench, req.WorkerID)
		reply(w, CompleteReply{Stale: true})
		return
	}

	// Persist the admitted completion before delivering or replying, so
	// a coordinator killed immediately after still replays it.
	cr := cellRecord{
		Index: req.Index, Bench: req.Bench, LeaseID: req.LeaseID, Worker: req.WorkerID,
		Result: req.Result, Error: req.Error, Retryable: req.Retryable,
	}
	c.persist(RecordCell, cr)
	c.o.Metrics.Counter("fabric.cells_done").Inc()
	c.o.Metrics.Counter("fabric.worker." + req.WorkerID + ".cells_done").Inc()
	c.o.Metrics.Import("", req.Telemetry)
	if waiter != nil {
		c.logf("cell %d (%s) completed by worker %s", req.Index, req.Bench, req.WorkerID)
		waiter <- cr.outcome()
	} else {
		// A worker can finish a recovered lease's cell before RunSuite
		// enqueues it: the outcome waits for that enqueue.
		c.mu.Lock()
		cs.pending = append(cs.pending, cr.outcome())
		c.mu.Unlock()
		c.logf("cell %d (%s) completed early by worker %s (pre-enqueue admission)", req.Index, req.Bench, req.WorkerID)
	}
	reply(w, CompleteReply{Accepted: true})
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req HeartbeatRequest
	if !decode(w, r, &req) {
		return
	}
	var out HeartbeatReply
	now := time.Now()
	c.lapse(now)
	c.mu.Lock()
	ws := c.touch(req.WorkerID)
	for _, id := range req.LeaseIDs {
		if i, ok := c.leases[id]; ok && c.cells[i].worker == req.WorkerID {
			c.cells[i].deadline = now.Add(c.o.LeaseTTL)
		} else {
			out.Revoked = append(out.Revoked, id)
		}
	}
	out.Done = c.finished
	if out.Done {
		ws.sawDone = true
	}
	c.mu.Unlock()
	c.o.Metrics.Counter("fabric.heartbeats").Inc()
	reply(w, out)
}
