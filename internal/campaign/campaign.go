package campaign

import (
	"sync/atomic"

	"memnet/internal/core"
	"memnet/internal/experiments"
)

// Counter tallies cache traffic through a CachedSim hook. Safe for
// concurrent use; a nil *Counter is a valid no-op sink.
type Counter struct {
	hits, misses atomic.Uint64
}

// Hits returns how many runs were served from the cache.
func (c *Counter) Hits() uint64 {
	if c == nil {
		return 0
	}
	return c.hits.Load()
}

// Misses returns how many runs were actually simulated.
func (c *Counter) Misses() uint64 {
	if c == nil {
		return 0
	}
	return c.misses.Load()
}

// hit and miss record one outcome each (nil-safe).
func (c *Counter) hit() {
	if c != nil {
		c.hits.Add(1)
	}
}
func (c *Counter) miss() {
	if c != nil {
		c.misses.Add(1)
	}
}

// CachedSim wraps a simulation backend with the persistent store: a
// cacheable run whose fingerprint is present is served from disk
// without simulating; a miss simulates through next (core.Simulate when
// nil) and writes the result back. Uncacheable runs pass straight
// through, and so does a run whose fingerprint cannot be computed
// (FingerprintParams). The counter, when non-nil, observes hits and
// misses — the run-count hook the warm-cache regression test asserts
// on.
func CachedSim(store *Store, next experiments.SimFunc, c *Counter) experiments.SimFunc {
	if next == nil {
		next = core.Simulate
	}
	return func(p core.Params) (core.Results, error) {
		if !Cacheable(p) {
			c.miss()
			return next(p)
		}
		fp, err := FingerprintParams(p)
		if err != nil {
			c.miss()
			return next(p)
		}
		if res, ok := store.Get(fp); ok {
			c.hit()
			return res, nil
		}
		c.miss()
		res, err := next(p)
		if err != nil {
			return core.Results{}, err
		}
		if err := store.Put(fp, KeyOf(p), res); err != nil {
			return core.Results{}, err
		}
		return res, nil
	}
}
