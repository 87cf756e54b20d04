package experiments

import (
	"errors"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"memnet/internal/arb"
	"memnet/internal/config"
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
// run once, Run then serves every run from the memo, and the memo it
// leaves is the same at every worker count.
func TestWarmFillsCacheAtEveryWorkerCount(t *testing.T) {
	cfgs, suite := warmGrid()
	var want []core.Results
	for _, parallel := range []int{1, 3, 64} {
		var calls atomic.Int64
		r := NewRunner(Options{Transactions: 100, Seed: 1, Parallel: parallel})
		r.Sim = fakeSim(&calls, "")
		runs := r.grid(cfgs, suite, nil)
		if err := r.Warm(runs); err != nil {
			t.Fatal(err)
		}
		if n := calls.Load(); n != int64(2*len(suite)) {
			t.Errorf("parallel=%d: %d simulations, want %d", parallel, n, 2*len(suite))
		}
		got := make([]core.Results, len(runs))
		for i, p := range runs {
			res, err := r.Run(p)
			if err != nil {
				t.Fatal(err)
			}
			got[i] = res
		}
		if want == nil {
			want = got
		} else if !reflect.DeepEqual(got, want) {
			t.Errorf("parallel=%d: memo differs from parallel=1", parallel)
		}
		if err := r.Warm(runs); err != nil || calls.Load() != int64(2*len(suite)) {
			t.Errorf("parallel=%d: Run or a rewarm simulated again (err %v)", parallel, err)
		}
	}
}

// TestWarmErrorCachesNothing: a failing run aborts Warm with the run's
// label in the error, and no partial results reach the memo.
func TestWarmErrorCachesNothing(t *testing.T) {
	cfgs, suite := warmGrid()
	for _, parallel := range []int{1, 4} {
		var calls atomic.Int64
		r := NewRunner(Options{Transactions: 100, Seed: 1, Parallel: parallel})
		r.Sim = fakeSim(&calls, suite[2].Name)
		runs := r.grid(cfgs, suite, nil)
		err := r.Warm(runs)
		if err == nil || !strings.Contains(err.Error(), cfgs[0].Label()+"/"+suite[2].Name) {
			t.Fatalf("parallel=%d: err = %v, want the first failing run", parallel, err)
		}
		calls.Store(0)
		r.Sim = fakeSim(&calls, "")
		if err := r.Warm(runs); err != nil {
			t.Fatal(err)
		}
		if n := calls.Load(); n != int64(2*len(suite)) {
			t.Errorf("parallel=%d: %d of %d runs left to simulate after a failed Warm", parallel, n, 2*len(suite))
		}
	}
}

// TestFiguresShareRuns: every figure goes through one memo keyed by the
// complete run, so after Fig. 11 Fig. 13 simulates only its 4-port runs,
// and after Fig. 15 Fig. 14 simulates only its 1TB runs.
func TestFiguresShareRuns(t *testing.T) {
	half := config.Default().TotalCapacity / 2
	for _, tc := range []struct {
		name        string
		first, then func(*Runner) (*Table, error)
		edited      func(core.Params) bool
		want        int64
	}{
		{"fig11-fig13", (*Runner).Fig11, (*Runner).Fig13,
			func(p core.Params) bool { return p.Sys.Ports == 4 }, 12 * 8},
		{"fig15-fig14", (*Runner).Fig15, (*Runner).Fig14,
			func(p core.Params) bool { return p.Sys.TotalCapacity == half }, 20 * 8},
	} {
		var calls, unedited atomic.Int64
		r := NewRunner(Options{Transactions: 100, Seed: 1})
		sim := fakeSim(&calls, "")
		r.Sim = func(p core.Params) (core.Results, error) {
			if !tc.edited(p) {
				unedited.Add(1)
			}
			return sim(p)
		}
		if _, err := tc.first(r); err != nil {
			t.Fatal(err)
		}
		calls.Store(0)
		unedited.Store(0)
		if _, err := tc.then(r); err != nil {
			t.Fatal(err)
		}
		if calls.Load() != tc.want || unedited.Load() != 0 {
			t.Errorf("%s: the second figure simulated %d runs, %d of them on the base system; want %d, none",
				tc.name, calls.Load(), unedited.Load(), tc.want)
		}
	}
}
