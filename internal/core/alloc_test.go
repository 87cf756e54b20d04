package core

import (
	"runtime"
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

// TestBuildFootprint: building a network costs a bounded number of
// bytes and allocations, most of them the modelled network rather than
// bank bookkeeping. Each budget is the value measured on go1.24/amd64
// plus 10%. Banks that each carried a timing copy and counters would
// put the tree build near 850 KB.
func TestBuildFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	// 256 banks per cube: the per-bank record is most of a build.
	if sz := unsafe.Sizeof(mem.Bank{}); sz > 40 {
		t.Errorf("mem.Bank is %d B, want <= 40", sz)
	}
	wl, err := workload.ByName("BACKPROP")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name          string
		p             Params
		bytes, allocs uint64 // budgets per build
	}{
		{"tree", testParams(topology.Tree, 1.0, config.NVMLast, arb.DistanceAugmented, wl),
			360_000, 1850},
		{"skiplist-nvm50", testParams(topology.SkipList, 0.5, config.NVMFirst, arb.DistanceAugmented, wl),
			233_000, 1280},
	} {
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
		if bytes > tc.bytes {
			t.Errorf("%s: %d B per build, budget %d", tc.name, bytes, tc.bytes)
		}
		if allocs > tc.allocs {
			t.Errorf("%s: %d allocations per build, budget %d", tc.name, allocs, tc.allocs)
		}
	}
}
