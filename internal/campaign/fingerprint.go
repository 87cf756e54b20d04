// Package campaign is the persistent result cache behind
// internal/experiments: a content-addressed store of simulation results
// keyed by a canonical fingerprint of the complete run configuration,
// and CachedSim, a simulation hook that serves every cacheable run
// already on disk without simulating it and writes each new one back.
//
// `mnexp -cache DIR` installs CachedSim in the experiment runner, so an
// interrupted campaign resumes and a repeated one simulates nothing;
// memnet.RunCached (and through it `mnsweep -cache`) uses the same hook
// for single runs. See DESIGN.md, "Campaigns & result cache".
package campaign

import (
	"fmt"
	"hash/fnv"

	"memnet/internal/core"
)

// CacheSchema identifies the result-cache envelope layout AND the
// semantic version of the simulator's result-producing code. It is part
// of every fingerprint and every envelope: bumping it atomically
// invalidates all cached results. Bump it whenever (a) the envelope
// format changes, (b) core.Results gains/loses/renames a field, (c) a
// simulation-semantics change makes old results wrong for the same
// configuration, or (d) core.Run.Spec changes shape.
const CacheSchema = "memnet/result-cache/v6"

// Fingerprint is the content address of one simulation run: an FNV-1a
// hash of the cache schema version and the run's Spec (see
// FingerprintOf).
type Fingerprint uint64

// String renders the fingerprint as fixed-width hex (the cache
// filename stem).
func (f Fingerprint) String() string { return fmt.Sprintf("%016x", uint64(f)) }

// cacheable reports whether the run's results may be served from (and
// written to) the persistent cache. Runs that exist for their side
// artifacts — trace replay/record, telemetry observers, causal span
// tracing — are excluded: their Results alone do
// not capture what the caller asked for (and a replayed trace is not
// covered by the fingerprint).
func cacheable(p *core.Params) bool {
	return len(p.Replay) == 0 && !p.Record && p.Obs == nil && p.Spans == nil
}

// FingerprintOf computes the content address of r: FNV-1a over
// CacheSchema and r.Spec(). It fails when the spec cannot be encoded
// (a NaN); such a run is simulated uncached.
func FingerprintOf(r *core.Run) (Fingerprint, error) {
	b, err := r.Spec()
	if err != nil {
		return 0, err
	}
	h := fnv.New64a()
	h.Write([]byte(CacheSchema))
	h.Write(b)
	return Fingerprint(h.Sum64()), nil
}
