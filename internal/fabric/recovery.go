package fabric

import (
	"encoding/json"
	"strconv"
	"strings"
	"time"

	"ilplimit/internal/harness"
	"ilplimit/internal/journal"
)

// Record kinds the coordinator persists to its recovery journal (a
// journal.OpenNamed file beside the run journal — never the run
// journal itself, which must stay byte-identical to a local run's).
const (
	// RecordLease is appended after every lease grant, before the grant
	// is revealed to the worker.
	RecordLease = "lease"
	// RecordCell is appended after every admitted completion, before
	// the outcome is delivered to the harness.
	RecordCell = "cell"
)

// leaseRecord is the JSON payload of a RecordLease entry.
type leaseRecord struct {
	// ID is the lease identifier revealed to the worker.
	ID string `json:"id"`
	// Index is the granted cell's suite index.
	Index int `json:"index"`
	// Bench is the granted cell's benchmark name.
	Bench string `json:"bench"`
	// Worker is the worker the cell was leased to.
	Worker string `json:"worker"`
}

// cellRecord is the JSON payload of a RecordCell entry: one admitted
// completion, successful or failed.
type cellRecord struct {
	// Index and Bench identify the completed cell.
	Index int    `json:"index"`
	Bench string `json:"bench"`
	// LeaseID is the grant this completion was admitted under, so a
	// replay consumes exactly the matching lease record and no other.
	LeaseID string `json:"lease_id"`
	// Worker reported the completion.
	Worker string `json:"worker"`
	// Result is the worker's marshaled BenchResult, verbatim (empty on
	// failure).
	Result json.RawMessage `json:"result,omitempty"`
	// Error and Retryable mirror the worker's failure report.
	Error     string `json:"error,omitempty"`
	Retryable bool   `json:"retryable,omitempty"`
}

// fold restores the cell table a previous incarnation left in its
// recovery journal, so its leases and admitted outcomes become
// ordinary live ones.  Records() returns per-kind slices in journal
// order, and the two kinds need no global interleaving: grants for one
// cell are strictly ordered (the last wins), and a completion names the
// exact lease it was admitted under, so it ends that lease and no other
// — a newer grant for the same cell survives the fold.  Every folded
// lease's TTL starts now.  Records that are CRC-valid but semantically
// unparseable are skipped: a recovery journal is a safety net, and a
// best-effort replay still beats discarding the run.
func (c *Coordinator) fold(j *journal.Journal) {
	deadline := time.Now().Add(c.o.LeaseTTL)
	for _, raw := range j.Records(RecordLease) {
		var lr leaseRecord
		if err := json.Unmarshal(raw, &lr); err != nil || lr.ID == "" {
			continue
		}
		cs := c.cell(lr.Index)
		c.endLease(cs)
		cs.bench, cs.leaseID, cs.worker, cs.deadline = lr.Bench, lr.ID, lr.Worker, deadline
		c.leases[lr.ID] = lr.Index
		c.nextLease = max(c.nextLease, leaseOrdinal(lr.ID))
	}
	done := 0
	for _, raw := range j.Records(RecordCell) {
		var cr cellRecord
		if err := json.Unmarshal(raw, &cr); err != nil || cr.Bench == "" {
			continue
		}
		cs := c.cell(cr.Index)
		if len(cs.pending) == 0 {
			done++
		}
		cs.pending = append(cs.pending, cr.outcome())
		if cs.leaseID == cr.LeaseID {
			c.endLease(cs)
		}
	}
	if n := len(c.leases); n > 0 {
		c.o.Metrics.Counter("fabric.recovered_leases").Add(int64(n))
		c.logf("recovered %d outstanding lease(s) from a previous coordinator", n)
	}
	if done > 0 {
		c.o.Metrics.Counter("fabric.recovered_cells").Add(int64(done))
		c.logf("recovered %d completed cell(s) from a previous coordinator", done)
	}
}

// leaseOrdinal extracts N from a "lease-N" identifier (0 if malformed).
func leaseOrdinal(id string) int64 {
	rest, ok := strings.CutPrefix(id, "lease-")
	if !ok {
		return 0
	}
	n, err := strconv.ParseInt(rest, 10, 64)
	if err != nil {
		return 0
	}
	return n
}

// outcome converts an admitted completion, live or journaled, into the
// cellOutcome RunCell returns.  A result that does not decode (version
// skew the fingerprint missed, or a torn stream) is a transient remote
// failure, so the retry policy re-runs the cell rather than poisoning
// the suite.
func (cr cellRecord) outcome() cellOutcome {
	if cr.Error != "" {
		return cellOutcome{err: &RemoteError{Bench: cr.Bench, Worker: cr.Worker, Msg: cr.Error, Transient: cr.Retryable}}
	}
	res := new(harness.BenchResult)
	if err := json.Unmarshal(cr.Result, res); err != nil {
		return cellOutcome{err: &RemoteError{Bench: cr.Bench, Worker: cr.Worker, Msg: "undecodable result: " + err.Error(), Transient: true}}
	}
	return cellOutcome{res: res}
}

// persist appends one record to the recovery journal, if any.  Failures
// are logged, not fatal: recovery is an additional safety net and must
// not take down a healthy run (the sticky-broken journal keeps a torn
// file salvageable regardless).
func (c *Coordinator) persist(kind string, payload interface{}) {
	if c.o.Recovery == nil {
		return
	}
	raw, err := json.Marshal(payload)
	if err == nil {
		err = c.o.Recovery.AppendRecord(kind, raw)
	}
	if err != nil {
		c.o.Metrics.Counter("fabric.recovery_persist_errors").Inc()
		c.logf("recovery journal append (%s) failed: %v", kind, err)
	}
}
