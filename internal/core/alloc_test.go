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
// allocates only while its arbiter tables, the host's stalled-read and
// ready queues and event lanes warm up, so doubling its length adds at
// most a few allocations. The cases cover both arbiter modes, read-modify-write pairs (BIT), NVM-first PCM
// occupancy (the 50% skip list), and a port that parks reads behind
// writes to their block and retires reads in wavefronts (rawReplay).
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
		{"tree-raw-replay", rawReplay(testParams(topology.Tree, 1.0, config.NVMLast, arb.DistanceAugmented, byName("KMEANS")))},
	}
	// extra bounds what a 40k-transaction run may allocate beyond a 20k
	// one: the runtime's own allocations during the run (the host's
	// coherence and wavefront tables are fixed at New, so they never
	// grow). The cases measured -2 to +8 on go1.24/amd64,
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

// rawReplay makes p replay a trace in which every write is followed at
// once by reads of its block, so that the host parks reads behind
// pending writes (a write is pending for at least its network round
// trip) and releases them, and, with the default wavefront size,
// retires reads in groups.
func rawReplay(p Params) Params {
	var trace []workload.Tx
	for blk := uint64(0); blk < 64; blk++ {
		addr := blk * 4096
		trace = append(trace,
			workload.Tx{Addr: addr, Write: true, Gap: sim.Nanosecond},
			workload.Tx{Addr: addr, Gap: sim.Nanosecond},
			workload.Tx{Addr: addr + 8, Gap: sim.Nanosecond},
			workload.Tx{Addr: addr + 1<<20, Gap: sim.Nanosecond})
	}
	p.Replay = trace
	return p
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
// plus 10%, and budgets are only ever tightened; the warm allocation
// budgets also hold the 4 allocations a build's pool guards add under
// -tags simdebug, which 10% of 29 does not cover. A cold build, the
// first of its configuration in a process, generates its topology: a
// tree measures 228 KB in 67 allocations. A warm build takes the topology
// from the network memo: a tree measures 217 KB in 29 allocations. Each
// build is in new memory (buildUnpooled), whatever earlier tests left in
// the pool of recycled arenas. The
// host's coherence and wavefront maps, and closures for its lookups,
// its response delivery and the quadrants' bank map, each added at
// least one more. Routers each holding inline storage for
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
	// A cold build generates its topology; a warm one takes it from the
	// network memo, as every build after a configuration's first does.
	type budget struct{ bytes, allocs uint64 }
	budgets := map[string]struct{ cold, warm budget }{ // per build
		"tree":           {budget{249_400, 74}, budget{239_300, 36}},
		"skiplist-nvm50": {budget{173_100, 75}, budget{166_700, 36}},
		"chain":          {budget{249_300, 71}, budget{239_300, 36}},
		"ring":           {budget{259_100, 75}, budget{248_800, 36}},
		"metacube":       {budget{265_500, 76}, budget{253_100, 36}},
		"mesh":           {budget{265_000, 82}, budget{252_400, 36}},
	}
	t.Cleanup(resetNetworks)
	for _, tc := range buildCases(t) {
		for _, cold := range []bool{true, false} {
			const builds = 20
			if _, err := buildUnpooled(tc.p); err != nil {
				t.Fatal(err)
			}
			var m0, m1 runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&m0)
			for i := 0; i < builds; i++ {
				if cold {
					resetNetworks()
				}
				if _, err := buildUnpooled(tc.p); err != nil {
					t.Fatal(err)
				}
			}
			runtime.ReadMemStats(&m1)
			bytes := (m1.TotalAlloc - m0.TotalAlloc) / builds
			allocs := (m1.Mallocs - m0.Mallocs) / builds
			b, name := budgets[tc.name].warm, tc.name+" warm"
			if cold {
				b, name = budgets[tc.name].cold, tc.name+" cold"
			}
			t.Logf("%s: %d B, %d allocs per build", name, bytes, allocs)
			if bytes > b.bytes {
				t.Errorf("%s: %d B per build, budget %d", name, bytes, b.bytes)
			}
			if allocs > b.allocs {
				t.Errorf("%s: %d allocations per build, budget %d", name, allocs, b.allocs)
			}
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
	t.Cleanup(resetNetworks)
	for _, tc := range buildCases(t) {
		// A cold build generates its topology; a warm one takes it from
		// the network memo.
		for _, cold := range []bool{true, false} {
			measure := func(scale uint64) (allocs float64, cubes int) {
				p := tc.p
				p.Sys.TotalCapacity *= scale
				in, err := buildUnpooled(p)
				if err != nil {
					t.Fatal(err)
				}
				cubes = len(in.Graph.CubeIDs())
				return testing.AllocsPerRun(10, func() {
					if cold {
						resetNetworks()
					}
					if _, err := buildUnpooled(p); err != nil {
						t.Fatal(err)
					}
				}), cubes
			}
			name := tc.name + " warm"
			if cold {
				name = tc.name + " cold"
			}
			small, n := measure(1)
			large, n2 := measure(2)
			t.Logf("%s: %v allocations at %d cubes, %v at %d", name, small, n, large, n2)
			if n2 != 2*n {
				t.Fatalf("%s: doubling the capacity built %d cubes from %d", name, n2, n)
			}
			if large > small {
				t.Errorf("%s: %v allocations at %d cubes, %v at %d: build allocations grow with the network",
					name, small, n, large, n2)
			}
		}
	}
}

// BenchmarkBuild times and counts the allocations of one core.Build per
// topology kind: cold, generating the topology, and warm, taking it
// from the network memo.
func BenchmarkBuild(b *testing.B) {
	b.Cleanup(resetNetworks)
	for _, cold := range []bool{true, false} {
		mode := "warm"
		if cold {
			mode = "cold"
		}
		for _, tc := range buildCases(b) {
			b.Run(mode+"/"+tc.name, func(b *testing.B) {
				if !cold {
					if _, err := buildUnpooled(tc.p); err != nil {
						b.Fatal(err)
					}
					b.ResetTimer()
				}
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if cold {
						resetNetworks()
					}
					if _, err := buildUnpooled(tc.p); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
