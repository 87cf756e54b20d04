package core

import (
	"runtime"
	"testing"

	"memnet/internal/arb"
	"memnet/internal/config"
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
