// Package fabric turns the suite harness into a small cluster runtime:
// a coordinator shards the suite's (benchmark × configuration) cells
// across worker processes over a versioned HTTP/JSON wire protocol with
// work-stealing pull dispatch, and merges the streamed-back results into
// a SuiteResult and journal byte-identical to a single-process run.
//
// The coordinator plugs into harness.RunSuite through Options.CellRunner,
// so resume, bounded retries, ordered journaling, and degraded reporting
// all behave exactly as they do locally; workers execute leased cells
// through harness.RunCell and classify failures with harness.Retryable.
// The coordinator keeps one table of cells and starts no goroutine: a
// leased cell whose worker misses its heartbeats lapses at the next call
// that reaches the coordinator, is requeued and handed to the next
// puller, and the original worker's late completion is dropped as stale
// — the table admits exactly one completion per lease, with the
// journal's conflicting-duplicate check as the durable backstop.  A
// coordinator restarted over its recovery journal folds the leases and
// outcomes it finds there into the same table.
//
// See DESIGN.md §13 for the message catalogue, the exactly-once
// argument, the determinism proof sketch, and the failure matrix.
package fabric
