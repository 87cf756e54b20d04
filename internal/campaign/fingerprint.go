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
	"encoding/json"
	"fmt"
	"hash/fnv"

	"memnet/internal/arb"
	"memnet/internal/config"
	"memnet/internal/core"
	"memnet/internal/fault"
	"memnet/internal/workload"
)

// CacheSchema identifies the result-cache envelope layout AND the
// semantic version of the simulator's result-producing code. It is part
// of every fingerprint and every envelope: bumping it atomically
// invalidates all cached results. Bump it whenever (a) the envelope
// format changes, (b) core.Results gains/loses/renames a field, (c) a
// simulation-semantics change makes old results wrong for the same
// configuration, or (d) the fingerprint's view changes shape.
const CacheSchema = "memnet/result-cache/v6"

// Fingerprint is the content address of one simulation run: an FNV-1a
// hash of the cache schema version and the JSON encoding of the run's
// resolved inputs (see FingerprintParams).
type Fingerprint uint64

// String renders the fingerprint as fixed-width hex (the cache
// filename stem).
func (f Fingerprint) String() string { return fmt.Sprintf("%016x", uint64(f)) }

// Cacheable reports whether the run's results may be served from (and
// written to) the persistent cache. Runs that exist for their side
// artifacts — trace replay/record, telemetry observers, causal span
// tracing — are excluded: their Results alone do
// not capture what the caller asked for (and a replayed trace is not
// covered by the fingerprint).
func Cacheable(p core.Params) bool {
	return len(p.Replay) == 0 && !p.Record && p.Obs == nil && p.Spans == nil
}

// view is what core.Build acts on for a cacheable run: the run as
// core.Params.Resolved completes it, so every field of every struct in
// it is in the address by construction. Topo and Scenario enter as
// Graph, the canonical bytes of the spec core.NetworkOf returns, so a
// built-in run and a run of its exported scenario share an address, as
// do two spellings of one scenario file.
type view struct {
	Sys          config.System
	Graph        json.RawMessage
	Arb          arb.Kind
	Workload     workload.Spec
	Transactions uint64
	Seed         uint64
	Tuning       core.Tuning
	Fault        *fault.Config
}

// FingerprintParams computes the content address of the resolved run r
// (core.Params.Resolved): FNV-1a over CacheSchema and the JSON encoding
// of its view. It fails when the view cannot be built or encoded (a
// graph that cannot be generated, a NaN); such a run is simulated
// uncached.
func FingerprintParams(r core.Params) (Fingerprint, error) {
	// A scenario run's own spec canonicalizes to the bytes of the spec
	// NetworkOf normalizes from it, without building its graph again.
	spec := r.Scenario
	if spec == nil {
		s, _, err := core.NetworkOf(&r)
		if err != nil {
			return 0, err
		}
		spec = s
	}
	b, err := json.Marshal(view{
		Sys:          r.Sys,
		Graph:        spec.Canonical(),
		Arb:          r.Arb,
		Workload:     r.Workload,
		Transactions: r.Transactions,
		Seed:         r.Seed,
		Tuning:       r.Tuning,
		Fault:        r.Fault,
	})
	if err != nil {
		return 0, err
	}
	h := fnv.New64a()
	h.Write([]byte(CacheSchema))
	h.Write(b)
	return Fingerprint(h.Sum64()), nil
}
