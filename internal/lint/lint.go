// Package lint assembles mnlint, memnet's determinism and
// packet-ownership linter suite. Each analyzer catches a class of bug
// that no test, race run or fuzz target catches (the mutation audit in
// CHANGES.md, PR 18, names the plant only it catches):
//
//	detmap     no unordered map iteration in simulation packages
//	wallclock  no host clock or global math/rand in simulation packages
//	poolcheck  no use of a *packet.Packet after Pool.Put releases it,
//	           and no Put while it is bound to a scheduled event
//	           (path-sensitive, on the internal/lint/cfg dataflow engine)
//	schedcheck no possibly-negative or float-derived event delays
//	statskey   no fmt-built stat keys or string-keyed counters on hot paths
//	doccheck   no undocumented exported identifiers in the documented-API
//	           packages (campaign, experiments, obs, scenario)
//
// See DESIGN.md ("Determinism rules" and "Dataflow linting") for the
// rationale and the //lint: annotation escape hatches. cmd/mnlint is
// the driver.
package lint

import (
	"memnet/internal/lint/analysis"
	"memnet/internal/lint/detmap"
	"memnet/internal/lint/doccheck"
	"memnet/internal/lint/poolcheck"
	"memnet/internal/lint/schedcheck"
	"memnet/internal/lint/statskey"
	"memnet/internal/lint/wallclock"
)

// Analyzers returns the full mnlint suite in reporting order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		detmap.Analyzer,
		wallclock.Analyzer,
		poolcheck.Analyzer,
		schedcheck.Analyzer,
		statskey.Analyzer,
		doccheck.Analyzer,
	}
}

// ByName returns the named analyzers, or all of them for an empty list.
// Unknown names are ignored (the driver validates separately).
func ByName(names ...string) []*analysis.Analyzer {
	all := Analyzers()
	if len(names) == 0 {
		return all
	}
	var out []*analysis.Analyzer
	for _, n := range names {
		for _, a := range all {
			if a.Name == n {
				out = append(out, a)
			}
		}
	}
	return out
}
