package core

import (
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"memnet/internal/arb"
	"memnet/internal/config"
	"memnet/internal/link"
	"memnet/internal/mem"
	"memnet/internal/router"
	"memnet/internal/sim"
	"memnet/internal/topology"
	"memnet/internal/vault"
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
// 227 KB in 79 allocations. Routers each holding inline storage for
// eight ports and an engine whose wheel kept 1024 head and tail pairs
// would put it near 237 KB; link directions that each carried their
// fault record, a wakeup holding its handler, and quadrants holding a
// copy of their timing near 269 KB; a 40 B bank record, with its activate
// and next refresh times in full, near 335 KB; banks that each carried
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
	// The records a build makes hundreds of: 256 banks per cube, eight
	// link directions and four quadrants per cube, and a wakeup in every
	// direction and router; and its routers, whose port storage is
	// carved by port count, and the engine, whose wheel slots are one
	// int32 each.
	for _, c := range []struct {
		name     string
		sz, want uintptr
	}{
		{"mem.Bank", unsafe.Sizeof(mem.Bank{}), 24},
		{"link.Direction", unsafe.Sizeof(link.Direction{}), 304},
		{"sim.Wakeup", unsafe.Sizeof(sim.Wakeup{}), 40},
		{"vault.Quadrant", unsafe.Sizeof(vault.Quadrant{}), 296},
		{"router.Router", unsafe.Sizeof(router.Router{}), 320},
		{"sim.Engine", unsafe.Sizeof(sim.Engine{}), 4408},
	} {
		if c.sz > c.want {
			t.Errorf("%s is %d B, want <= %d", c.name, c.sz, c.want)
		}
	}
	budgets := map[string]struct{ bytes, allocs uint64 }{ // per build
		"tree":           {249_400, 86},
		"skiplist-nvm50": {173_100, 88},
		"chain":          {249_300, 83},
		"ring":           {259_100, 88},
		"metacube":       {265_500, 89},
		"mesh":           {265_000, 94},
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

// TestNoFaultRecordsWithoutFaults: without a fault plan no link
// direction has a fault record, before or after a run: only a direction
// given a CRC model, failed or down-bound makes one.
func TestNoFaultRecordsWithoutFaults(t *testing.T) {
	for _, tc := range buildCases(t) {
		p := tc.p
		p.Transactions = 2000
		in, err := Build(p)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := in.Run(); err != nil {
			t.Fatal(err)
		}
		var dirs []*link.Direction
		for _, e := range in.dirs {
			dirs = append(dirs, e.ab, e.ba)
		}
		for _, c := range in.nodes {
			for i := 0; c.router != nil && i < c.router.NumPorts(); i++ {
				dirs = append(dirs, c.router.Output(i))
			}
		}
		for i, d := range dirs {
			if d.HasFaults() {
				t.Errorf("%s: direction %d of %d has a fault record", tc.name, i, len(dirs))
			}
		}
	}
}

// TestBuildAllocsFlat: a build's allocation count does not grow with
// the network. Every router, arbiter, router port, link direction,
// buffer, quadrant and bank comes from a slab, and routes, return distances and the
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
