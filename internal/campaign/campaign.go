package campaign

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"memnet/internal/core"
	"memnet/internal/experiments"
	"memnet/internal/fanout"
	"memnet/internal/sim"
)

// Unit is one cell of the campaign grid: a complete, self-contained
// simulation configuration and its content address.
type Unit struct {
	// FP is the unit's fingerprint (the cache address).
	FP Fingerprint
	// Key is the human-readable summary of Params.
	Key Key
	// Params fully determines the run.
	Params core.Params
}

// Grid enumerates every simulation the full figure/table campaign would
// execute for the given options and base system, deduplicated by
// fingerprint and sorted by fingerprint for a deterministic order.
//
// The enumeration is a dry run of every experiment harness: a recording
// SimFunc is installed in a Runner and all Figures are executed against
// fabricated results, so the grid is — by construction, not by a
// parallel hand-maintained list — exactly the set of runs the real
// harnesses would request. Fabricated results use FinishTime=1 so the
// harnesses' speedup arithmetic stays finite; the resulting tables are
// discarded.
func Grid(opts experiments.Options) ([]Unit, error) {
	rec := &recorder{seen: make(map[Fingerprint]bool)}
	// One worker: the recorder serializes anyway, and the fabricated
	// runs cost nothing.
	opts.Parallel = 1
	r := experiments.NewRunner(opts)
	r.Sim = rec.record
	for _, f := range r.Figures() {
		if _, err := f.Fn(); err != nil {
			return nil, fmt.Errorf("campaign: enumerating %s: %w", f.ID, err)
		}
	}
	sort.Slice(rec.units, func(i, j int) bool { return rec.units[i].FP < rec.units[j].FP })
	return rec.units, nil
}

// recorder is the grid-enumeration SimFunc: it fingerprints every
// requested run, records first sightings, and fabricates a minimal
// plausible result instead of simulating.
type recorder struct {
	mu    sync.Mutex
	seen  map[Fingerprint]bool
	units []Unit
}

// record implements experiments.SimFunc for enumeration.
func (r *recorder) record(p core.Params) (core.Results, error) {
	fp := FingerprintParams(p)
	r.mu.Lock()
	if !r.seen[fp] {
		r.seen[fp] = true
		r.units = append(r.units, Unit{FP: fp, Key: KeyOf(p), Params: p})
	}
	r.mu.Unlock()
	// Non-zero FinishTime and Energy keep speedup ratios and energy
	// normalizations finite during the dry run.
	return core.Results{
		Label:        p.Label(),
		Workload:     p.Workload.Name,
		FinishTime:   sim.Time(1),
		Transactions: p.Transactions,
	}, nil
}

// Shard selects partition k of n (1-based k) of the campaign grid.
// The zero value means "the whole grid" (1 of 1).
type Shard struct {
	// K is the 1-based shard index.
	K int
	// N is the shard count.
	N int
}

// ParseShard parses the mnexp -shard syntax "k/n".
func ParseShard(s string) (Shard, error) {
	var sh Shard
	if _, err := fmt.Sscanf(s, "%d/%d", &sh.K, &sh.N); err != nil {
		return Shard{}, fmt.Errorf("campaign: -shard wants k/n, got %q", s)
	}
	if err := sh.Validate(); err != nil {
		return Shard{}, err
	}
	return sh, nil
}

// Validate checks 1 <= K <= N.
func (s Shard) Validate() error {
	if s.N < 1 || s.K < 1 || s.K > s.N {
		return fmt.Errorf("campaign: invalid shard %d/%d (want 1 <= k <= n)", s.K, s.N)
	}
	return nil
}

// String renders the shard as "k/n".
func (s Shard) String() string { return fmt.Sprintf("%d/%d", s.K, s.N) }

// Select returns this shard's subset of the grid: units at positions
// k-1, k-1+n, k-1+2n, ... of the fingerprint-sorted grid. The stride
// interleaves expensive neighborhoods (e.g. the doubled-trace Fig. 13
// runs) across shards instead of handing one shard a contiguous block
// of them. Over k=1..n the selections partition the grid exactly.
func (s Shard) Select(grid []Unit) []Unit {
	if s.N <= 1 {
		return grid
	}
	var out []Unit
	for i := s.K - 1; i < len(grid); i += s.N {
		out = append(out, grid[i])
	}
	return out
}

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
// through. The counter, when non-nil, observes hits and misses — the
// run-count hook the warm-cache regression test asserts on.
func CachedSim(store *Store, next experiments.SimFunc, c *Counter) experiments.SimFunc {
	if next == nil {
		next = core.Simulate
	}
	return func(p core.Params) (core.Results, error) {
		if !Cacheable(p) {
			c.miss()
			return next(p)
		}
		fp := FingerprintParams(p)
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

// Progress reports one shard-execution step. Done counts finished units
// (hits and simulations both); Total is the shard size.
type Progress struct {
	// Done counts completed units so far.
	Done int
	// Total is the number of units in this shard.
	Total int
	// Hit marks whether the unit was served from the cache.
	Hit bool
	// Key identifies the unit just finished.
	Key Key
}

// RunStats summarizes a RunShard execution.
type RunStats struct {
	// GridSize is the full campaign grid size.
	GridSize int
	// ShardSize is the number of units this shard owns.
	ShardSize int
	// Hits counts units already present in the cache (the resume case).
	Hits int
	// Simulated counts units actually executed.
	Simulated int
}

// RunShard executes this campaign shard: it enumerates the grid,
// selects the shard's partition, and runs every unit not already in the
// store on opts.Parallel workers, writing results to the store in grid
// order as they become available. Already-cached units are skipped
// (this is what makes an interrupted campaign resumable: re-running a
// shard only simulates what is missing). The first failing unit in grid
// order aborts dispatch and its error is returned — including watchdog
// trips, which arrive as ordinary errors from core.Simulate with the
// wedge diagnosis attached. Units before it are stored; units after it
// are not.
//
// progress, when non-nil, is called after every unit on the calling
// goroutine (never concurrently).
func RunShard(opts experiments.Options, store *Store, shard Shard, progress func(Progress)) (RunStats, error) {
	if (shard == Shard{}) {
		shard = Shard{K: 1, N: 1}
	}
	if err := shard.Validate(); err != nil {
		return RunStats{}, err
	}
	grid, err := Grid(opts)
	if err != nil {
		return RunStats{}, err
	}
	units := shard.Select(grid)
	stats := RunStats{GridSize: len(grid), ShardSize: len(units)}

	var todo []Unit
	for _, u := range units {
		if _, ok := store.Get(u.FP); ok {
			stats.Hits++
			if progress != nil {
				progress(Progress{Done: stats.Hits, Total: len(units), Hit: true, Key: u.Key})
			}
			continue
		}
		todo = append(todo, u)
	}
	err = fanout.Run(len(todo), opts.Parallel, func(i int) (core.Results, error) {
		u := todo[i]
		res, err := core.Simulate(u.Params)
		if err != nil {
			err = fmt.Errorf("%s/%s: %w", u.Key.Label, u.Key.Workload, err)
		}
		return res, err
	}, func(i int, res core.Results) error {
		u := todo[i]
		if err := store.Put(u.FP, u.Key, res); err != nil {
			return err
		}
		stats.Simulated++
		if progress != nil {
			progress(Progress{Done: stats.Hits + stats.Simulated, Total: len(units), Key: u.Key})
		}
		return nil
	})
	return stats, err
}
