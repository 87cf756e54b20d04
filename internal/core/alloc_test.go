package core

import (
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"memnet/internal/arb"
	"memnet/internal/config"
	"memnet/internal/mem"
	"memnet/internal/topology"
	"memnet/internal/workload"
)

// TestSteadyStateAllocs: once built, a tree run's forwarding path — the
// engine, links, routers and arbiters, vaults and the host port — is
// allocation-free in the steady state: what remains per transaction is
// warm-up growth amortized over the run.
func TestSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	wl, err := workload.ByName("KMEANS")
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []arb.Kind{arb.RoundRobin, arb.DistanceAugmented} {
		p := testParams(topology.Tree, 1.0, config.NVMLast, k, wl)
		p.Transactions = 20000
		in, err := Build(p)
		if err != nil {
			t.Fatal(err)
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		res, err := in.Run()
		runtime.ReadMemStats(&m1)
		if err != nil {
			t.Fatal(err)
		}
		perTxn := float64(m1.Mallocs-m0.Mallocs) / float64(res.Transactions)
		t.Logf("%v: %.4f allocs/txn over %d txns", k, perTxn, res.Transactions)
		if perTxn >= 0.1 {
			t.Errorf("%v: %.3f allocations per transaction, want < 0.1", k, perTxn)
		}
	}
}

type buildCase struct {
	name string
	p    Params
}

// buildCases are one build per topology kind: the tree and the 50% NVM
// skip list of the benchmark workloads, and every other kind all DRAM.
func buildCases(tb testing.TB) []buildCase {
	wl, err := workload.ByName("BACKPROP")
	if err != nil {
		tb.Fatal(err)
	}
	cases := []buildCase{
		{"tree", testParams(topology.Tree, 1.0, config.NVMLast, arb.DistanceAugmented, wl)},
		{"skiplist-nvm50", testParams(topology.SkipList, 0.5, config.NVMFirst, arb.DistanceAugmented, wl)},
	}
	for _, k := range []topology.Kind{topology.Chain, topology.Ring, topology.MetaCube, topology.Mesh} {
		name := strings.ToLower(k.String())
		cases = append(cases, buildCase{name, testParams(k, 1.0, config.NVMLast, arb.DistanceAugmented, wl)})
	}
	return cases
}

// TestBuildFootprint: building a network costs a bounded number of
// bytes and allocations, most of them the modelled network rather than
// bank bookkeeping. Each budget is the value measured on go1.24/amd64
// plus 10%. Banks that each carried a timing copy and counters would
// put the tree build near 850 KB; a heap object and bound closures per
// link direction, buffer, router and quadrant near 1,700 allocations.
func TestBuildFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	// 256 banks per cube: the per-bank record is most of a build.
	if sz := unsafe.Sizeof(mem.Bank{}); sz > 40 {
		t.Errorf("mem.Bank is %d B, want <= 40", sz)
	}
	budgets := map[string]struct{ bytes, allocs uint64 }{ // per build
		"tree":           {356_000, 514},
		"skiplist-nvm50": {233_000, 363},
		"chain":          {356_000, 511},
		"ring":           {356_300, 517},
		"metacube":       {364_800, 547},
		"mesh":           {370_200, 542},
	}
	for _, tc := range buildCases(t) {
		const builds = 20
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		for i := 0; i < builds; i++ {
			if _, err := Build(tc.p); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&m1)
		bytes := (m1.TotalAlloc - m0.TotalAlloc) / builds
		allocs := (m1.Mallocs - m0.Mallocs) / builds
		t.Logf("%s: %d B, %d allocs per build", tc.name, bytes, allocs)
		b := budgets[tc.name]
		if bytes > b.bytes {
			t.Errorf("%s: %d B per build, budget %d", tc.name, bytes, b.bytes)
		}
		if allocs > b.allocs {
			t.Errorf("%s: %d allocations per build, budget %d", tc.name, allocs, b.allocs)
		}
	}
}

// BenchmarkBuild times and counts the allocations of one core.Build per
// topology kind.
func BenchmarkBuild(b *testing.B) {
	for _, tc := range buildCases(b) {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Build(tc.p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
