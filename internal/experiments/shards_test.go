package experiments

import (
	"errors"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"memnet/internal/arb"
	"memnet/internal/core"
	"memnet/internal/sim"
	"memnet/internal/topology"
	"memnet/internal/workload"
)

// TestFigureTablesShardInvariant pins the `mnexp -shards` contract:
// figure tables are byte-identical whatever the worker count, because
// every simulation is an independent engine and table assembly happens
// on the calling goroutine in a fixed order. A small transaction count
// and a two-workload suite keep the check fast while still fanning
// enough runs to exercise the pool.
func TestFigureTablesShardInvariant(t *testing.T) {
	build := func(parallel int) map[string]*Table {
		opts := Options{
			Transactions: 300,
			Seed:         1,
			Workloads:    []string{"KMEANS", "BIT"},
			Parallel:     parallel,
		}
		r := NewRunner(opts)
		out := map[string]*Table{}
		for _, id := range []string{"fig4", "fig5"} {
			for _, f := range r.Figures() {
				if f.ID != id {
					continue
				}
				tab, err := f.Fn()
				if err != nil {
					t.Fatalf("parallel=%d %s: %v", parallel, id, err)
				}
				out[id] = tab
			}
		}
		return out
	}
	seq := build(1)
	par := build(4)
	for id, tab := range seq {
		if !reflect.DeepEqual(tab, par[id]) {
			t.Errorf("%s differs between -shards 1 and -shards 4\n seq: %+v\n par: %+v",
				id, tab, par[id])
		}
	}
}

// fakeSim stands in for core.Simulate: a cheap pure function of the
// params, so Warm's bookkeeping can be checked without simulating.
func fakeSim(calls *atomic.Int64, fail string) SimFunc {
	return func(p core.Params) (core.Results, error) {
		calls.Add(1)
		if p.Workload.Name == fail {
			return core.Results{}, errors.New("injected failure")
		}
		return core.Results{
			FinishTime:   sim.Time(p.Topo+1) * sim.Time(len(p.Workload.Name)),
			Transactions: p.Transactions,
		}, nil
	}
}

func warmGrid() ([]MNConfig, []workload.Spec) {
	cfgs := []MNConfig{
		{Topo: topology.Chain, DRAMFraction: 1, Arb: arb.RoundRobin},
		{Topo: topology.Tree, DRAMFraction: 1, Arb: arb.RoundRobin},
		{Topo: topology.Tree, DRAMFraction: 1, Arb: arb.RoundRobin}, // duplicate: simulated once
	}
	return cfgs, workload.Suite()
}

// TestWarmFillsCacheAtEveryWorkerCount: Warm simulates each distinct
// pair once, and the cache it leaves is the same at every worker count.
func TestWarmFillsCacheAtEveryWorkerCount(t *testing.T) {
	cfgs, suite := warmGrid()
	var want map[runKey]core.Results
	for _, parallel := range []int{1, 3, 64} {
		var calls atomic.Int64
		r := NewRunner(Options{Transactions: 100, Seed: 1, Parallel: parallel})
		r.Sim = fakeSim(&calls, "")
		if err := r.Warm(cfgs, suite); err != nil {
			t.Fatal(err)
		}
		if n := calls.Load(); n != int64(2*len(suite)) {
			t.Errorf("parallel=%d: %d simulations, want %d", parallel, n, 2*len(suite))
		}
		if want == nil {
			want = r.cache
		} else if !reflect.DeepEqual(r.cache, want) {
			t.Errorf("parallel=%d: cache differs from parallel=1", parallel)
		}
		if err := r.Warm(cfgs, suite); err != nil || calls.Load() != int64(2*len(suite)) {
			t.Errorf("parallel=%d: rewarm simulated again (err %v)", parallel, err)
		}
	}
}

// TestWarmErrorCachesNothing: a failing run aborts Warm with the pair's
// label in the error, and no partial results reach the cache.
func TestWarmErrorCachesNothing(t *testing.T) {
	cfgs, suite := warmGrid()
	for _, parallel := range []int{1, 4} {
		var calls atomic.Int64
		r := NewRunner(Options{Transactions: 100, Seed: 1, Parallel: parallel})
		r.Sim = fakeSim(&calls, suite[2].Name)
		err := r.Warm(cfgs, suite)
		if err == nil || !strings.Contains(err.Error(), cfgs[0].Label()+"/"+suite[2].Name) {
			t.Fatalf("parallel=%d: err = %v, want the first failing pair", parallel, err)
		}
		if len(r.cache) != 0 {
			t.Errorf("parallel=%d: %d results cached after a failed Warm", parallel, len(r.cache))
		}
	}
}
