package serve

import (
	"context"
	"errors"
	"sync"

	"chainaudit/internal/obs"
)

// Request-level metrics for the service, recorded into the shared obs
// registry so GET /v1/metrics (and any run manifest) sees them.
var (
	mRequests  = obs.Default.Counter("serve.requests")
	mCacheHits = obs.Default.Counter("serve.cache_hits")
	mErrors    = obs.Default.Counter("serve.errors")
	mWatchdogs = obs.Default.Counter("serve.watchdog_timeouts")
	mLatency   = obs.Default.Timer("serve.request")
)

// resultCache memoizes computed payloads by data set and key — (dataset
// fingerprint, audit/experiment, params) hashed by the caller. Concurrent
// requests for the same key compute once and share the result; errors are
// never cached, so a timeout or fault leaves the key free for the next
// attempt. A streaming set's ingest retires its entries (drop), so the
// cache holds only current fingerprints' payloads.
type resultCache struct {
	mu      sync.Mutex
	entries map[string]map[string]*cacheEntry // data set → key → entry
}

type cacheEntry struct {
	once sync.Once
	res  *payload
	err  error
}

// suiteCacheSet is the cache's data set for experiment payloads. No data
// set can be named "", so no ingest ever drops it.
const suiteCacheSet = ""

// cached is one answer from the cache: the payload, whether a completed
// earlier computation produced it (the envelope's "cached" field), and, for
// an audit, the fingerprint of the state it was computed from.
type cached struct {
	p   *payload
	hit bool
	fp  string
}

func newResultCache() *resultCache {
	return &resultCache{entries: make(map[string]map[string]*cacheEntry)}
}

// do returns the payload for set's key, computing it with f on first use.
func (c *resultCache) do(set, key string, f func() (*payload, error)) (cached, error) {
	for {
		e := c.entry(set, key)
		computed := false
		e.once.Do(func() {
			computed = true
			e.res, e.err = f()
		})
		if e.err == nil {
			if !computed {
				mCacheHits.Inc()
			}
			return cached{p: e.res, hit: !computed}, nil
		}
		// Drop failed entries: the next request recomputes instead of
		// replaying a transient failure forever.
		c.mu.Lock()
		if c.entries[set][key] == e {
			delete(c.entries[set], key)
		}
		c.mu.Unlock()
		if computed || !(errors.Is(e.err, context.Canceled) || errors.Is(e.err, context.DeadlineExceeded)) {
			return cached{}, e.err
		}
		// The computation this call waited on was cut short by its own
		// request's context (its watchdog, or its client leaving), which
		// says nothing about this request: compute afresh.
	}
}

// entry returns set's entry for key, creating it if needed.
func (c *resultCache) entry(set, key string) *cacheEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	keys := c.entries[set]
	if keys == nil {
		keys = make(map[string]*cacheEntry)
		c.entries[set] = keys
	}
	e := keys[key]
	if e == nil {
		e = &cacheEntry{}
		keys[key] = e
	}
	return e
}

// drop retires every entry of set. Ingest calls it under the set's write
// lock once an apply has rotated the set's fingerprint; no audit of the set
// is in flight then, since audits hold the read lock.
func (c *resultCache) drop(set string) {
	c.mu.Lock()
	delete(c.entries, set)
	c.mu.Unlock()
}
