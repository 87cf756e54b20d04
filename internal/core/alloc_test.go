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

// runAllocs builds p for txns transactions and returns the allocations
// its run makes, build excluded, and the transactions it completed.
func runAllocs(t *testing.T, p Params, txns uint64) (allocs, done uint64) {
	t.Helper()
	p.Transactions = txns
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
	return m1.Mallocs - m0.Mallocs, res.Transactions
}

// TestSteadyStateAllocs: once built, a run's forwarding path — the
// engine, links, routers and arbiters, vaults, the host port and the
// workload generator — is allocation-free in the steady state: a run
// allocates only while its arbiter tables, wavefront maps and event
// lanes warm up, so doubling its length adds at most a few allocations. The cases cover both
// arbiter modes, read-modify-write pairs (BIT) and NVM-first PCM
// occupancy (the 50% skip list).
func TestSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	byName := func(name string) workload.Spec {
		wl, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		return wl
	}
	cases := []struct {
		name string
		p    Params
	}{
		{"tree-kmeans-rr", testParams(topology.Tree, 1.0, config.NVMLast, arb.RoundRobin, byName("KMEANS"))},
		{"tree-kmeans-da", testParams(topology.Tree, 1.0, config.NVMLast, arb.DistanceAugmented, byName("KMEANS"))},
		{"tree-bit-da", testParams(topology.Tree, 1.0, config.NVMLast, arb.DistanceAugmented, byName("BIT"))},
		{"skiplist-nvmf50-bit", testParams(topology.SkipList, 0.5, config.NVMFirst, arb.DistanceAugmented, byName("BIT"))},
	}
	// extra bounds what a 40k-transaction run may allocate beyond a 20k
	// one: the runtime's own allocations during the run (the host's
	// coherence and wavefront maps are sized for its window, so they no
	// longer grow late). The cases measured -2 to +8 on go1.24/amd64,
	// 2 CPUs; one allocation per read-modify-write pair would add
	// thousands. maxPerTxn holds a 20k run, measured at 16-24
	// allocations (<= 0.0012 per transaction), with room for the
	// runtime's per-CPU allocations on larger machines.
	const (
		extra     = 12
		maxPerTxn = 0.005
	)
	for _, tc := range cases {
		short, n := runAllocs(t, tc.p, 20000)
		long, _ := runAllocs(t, tc.p, 40000)
		perTxn := float64(short) / float64(n)
		t.Logf("%s: %d allocs over 20k txns (%.4f/txn), %d over 40k", tc.name, short, perTxn, long)
		if perTxn >= maxPerTxn {
			t.Errorf("%s: %.4f allocations per transaction, want < %v", tc.name, perTxn, maxPerTxn)
		}
		if long > short+extra {
			t.Errorf("%s: 40k transactions allocate %d, 20k %d: more than %d apart", tc.name, long, short, extra)
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
// bank bookkeeping. Each budget is a value measured on go1.24/amd64
// plus 10%, and budgets are only ever tightened; a tree build measures
// 269 KB. A 40 B bank record, with its activate and next refresh times
// in full, would put the tree build near 335 KB; banks that each carried
// a timing copy and counters near 850 KB; a heap object and bound
// closures per link direction, buffer, router and quadrant near 1,700
// allocations; a bank slice and completion closure per quadrant and a
// landing callback per direction near 470; a route closure per router,
// a return-distance closure per cube, an arbiter with weight and bias
// closures per router and a name per node near 180.
func TestBuildFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	// 256 banks per cube: the per-bank record is most of a build.
	if sz := unsafe.Sizeof(mem.Bank{}); sz > 24 {
		t.Errorf("mem.Bank is %d B, want <= 24", sz)
	}
	budgets := map[string]struct{ bytes, allocs uint64 }{ // per build
		"tree":           {296_100, 91},
		"skiplist-nvm50": {205_200, 92},
		"chain":          {296_000, 88},
		"ring":           {296_400, 92},
		"metacube":       {314_500, 93},
		"mesh":           {310_000, 99},
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

// TestBuildAllocsFlat: a build's allocation count does not grow with
// the network. Every router, arbiter, link direction, buffer, quadrant
// and bank comes from a slab, and routes, return distances and the
// augmented arbiters' technology bias from per-build tables, so a build
// of twice the cubes makes no more allocations. Faults, telemetry and
// spans, which are off here, add per-component labels and series.
func TestBuildAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	for _, tc := range buildCases(t) {
		measure := func(scale uint64) (allocs float64, cubes int) {
			p := tc.p
			p.Sys.TotalCapacity *= scale
			in, err := Build(p)
			if err != nil {
				t.Fatal(err)
			}
			cubes = len(in.Graph.CubeIDs())
			return testing.AllocsPerRun(10, func() {
				if _, err := Build(p); err != nil {
					t.Fatal(err)
				}
			}), cubes
		}
		small, n := measure(1)
		large, n2 := measure(2)
		t.Logf("%s: %v allocations at %d cubes, %v at %d", tc.name, small, n, large, n2)
		if n2 != 2*n {
			t.Fatalf("%s: doubling the capacity built %d cubes from %d", tc.name, n2, n)
		}
		if large > small {
			t.Errorf("%s: %v allocations at %d cubes, %v at %d: build allocations grow with the network",
				tc.name, small, n, large, n2)
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
