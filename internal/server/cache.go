package server

import (
	"container/list"
	"sync"
)

// flight is one in-flight execution of a job key.  The leader — the
// request that began the flight — submits the job; joiners (identical
// concurrent submissions) wait on done and share the leader's outcome,
// including a shed: if the leader could not be admitted, every joiner
// is shed with it rather than retrying a job the server just refused.
type flight struct {
	done chan struct{}

	// Set before done closes; immutable afterwards.
	result []byte // canonical response payload on success
	err    error  // failure, nil on success
	status int    // HTTP status paired with err

	mu      sync.Mutex
	waiters int // requests still waiting on this flight
}

// addWaiter registers one waiting request.
func (f *flight) addWaiter() {
	f.mu.Lock()
	f.waiters++
	f.mu.Unlock()
}

// dropWaiter unregisters one waiting request (response written, or the
// client went away).
func (f *flight) dropWaiter() {
	f.mu.Lock()
	f.waiters--
	f.mu.Unlock()
}

// abandoned reports whether nobody is waiting on the flight anymore —
// every submitter disconnected — so executing it would burn a worker
// for a result no one will read.  Durable suite jobs still run: their
// journaled progress is the point of submitting them.
func (f *flight) abandoned() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.waiters == 0
}

// resultCache is the content-addressed result cache with single-flight
// dedup.  Completed successful results live in a bounded LRU keyed by
// the job's content hash; identical submissions that race share one
// flight instead of running the analyzer twice.  Failures are never
// cached — a deadline or an injected fault must not poison the key.
type resultCache struct {
	mu       sync.Mutex
	inflight map[string]*flight
	entries  map[string]*list.Element
	order    *list.List // front = most recently used
	max      int
}

// cacheEntry is one completed result in the LRU.
type cacheEntry struct {
	key    string
	result []byte
}

// newResultCache builds a cache holding up to max completed results.
func newResultCache(max int) *resultCache {
	return &resultCache{
		inflight: make(map[string]*flight),
		entries:  make(map[string]*list.Element),
		order:    list.New(),
		max:      max,
	}
}

// begin looks a key up.  A completed result returns (nil, false,
// result, true).  Otherwise the caller joins the key's flight: leader
// is true for exactly one caller per flight, which must execute the job
// and call complete; everyone else waits on the flight's done channel.
// The caller is registered as a waiter either way and must call
// dropWaiter when it stops waiting.
func (c *resultCache) begin(key string) (f *flight, leader bool, result []byte, hit bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		return nil, false, el.Value.(*cacheEntry).result, true
	}
	if f, ok := c.inflight[key]; ok {
		f.addWaiter()
		return f, false, nil, false
	}
	f = &flight{done: make(chan struct{})}
	f.addWaiter()
	c.inflight[key] = f
	return f, true, nil, false
}

// complete finishes a flight: records the outcome, releases the
// waiters, and — when keep is set (success) — installs the result in
// the LRU, evicting the least recently used entry past capacity.
func (c *resultCache) complete(key string, f *flight, result []byte, status int, err error, keep bool) {
	c.mu.Lock()
	f.result, f.status, f.err = result, status, err
	delete(c.inflight, key)
	if keep {
		if el, ok := c.entries[key]; ok {
			el.Value.(*cacheEntry).result = result
			c.order.MoveToFront(el)
		} else {
			c.entries[key] = c.order.PushFront(&cacheEntry{key: key, result: result})
			for c.order.Len() > c.max {
				last := c.order.Back()
				delete(c.entries, last.Value.(*cacheEntry).key)
				c.order.Remove(last)
			}
		}
	}
	c.mu.Unlock()
	close(f.done)
}
