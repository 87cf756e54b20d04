package core

import (
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"memnet/internal/arb"
	"memnet/internal/config"
	"memnet/internal/fanout"
	"memnet/internal/fault"
	"memnet/internal/scenario"
	"memnet/internal/sim"
	"memnet/internal/topology"
	"memnet/internal/vault"
	"memnet/internal/workload"
)

// buildUnpooled builds p in new memory, as a build that finds the pool
// empty does, whatever earlier tests left in the pool.
func buildUnpooled(p Params) (*Instance, error) { return buildIn(p, nil) }

// buildIn resolves p and builds it laid out in a, or in new memory when
// a is nil.
func buildIn(p Params, a *arena) (*Instance, error) {
	var r Run
	if err := r.resolve(p); err != nil {
		return nil, err
	}
	return r.build(a)
}

// TestRecycledSlabOvertakePanics: a recycled slab larger than a build
// needs is handed out cut to the build's count, so taking one element
// more is still the miscount panic, not a silent use of the spare.
func TestRecycledSlabOvertakePanics(t *testing.T) {
	a := arena{quads: make([]vault.Quadrant, 8)}
	s := fit(&a.quads, 4)[:0]
	if cap(a.quads) != 8 || len(a.quads) != 4 {
		t.Fatalf("arena keeps len %d, cap %d; want 4 of 8", len(a.quads), cap(a.quads))
	}
	for i := 0; i < 4; i++ {
		take(&s)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("taking a fifth quadrant from a 4-quadrant fit of an 8-quadrant slab did not panic")
		}
	}()
	take(&s)
}

// recycleCases are runs whose networks differ in size, kind,
// arbitration, technology mix and fault plan; each pair of neighbors,
// in either order, reuses one's arena for the other.
func recycleCases(t *testing.T) []buildCase {
	t.Helper()
	wl, err := workload.ByName("KMEANS")
	if err != nil {
		t.Fatal(err)
	}
	const txns = 1200
	var cases []buildCase
	add := func(name string, p Params) {
		p.Transactions = txns
		cases = append(cases, buildCase{name, p})
	}
	for _, k := range topology.Kinds {
		name := strings.ToLower(k.String())
		add(name+"-rr", testParams(k, 1.0, config.NVMLast, arb.RoundRobin, wl))
		add(name+"-da", testParams(k, 1.0, config.NVMLast, arb.DistanceAugmented, wl))
	}
	big := testParams(topology.Tree, 1.0, config.NVMLast, arb.RoundRobin, wl)
	big.Sys.TotalCapacity *= 2
	add("tree-32-rr", big)
	add("skiplist-nvmf50-da", testParams(topology.SkipList, 0.5, config.NVMFirst, arb.DistanceAugmented, wl))

	doc, err := json.Marshal(twoPod())
	if err != nil {
		t.Fatal(err)
	}
	spec, err := scenario.Decode(doc)
	if err != nil {
		t.Fatal(err)
	}
	add("scenario-two-pod", scenarioParams(t, spec))

	// A chaos plan on the ring, followed by the same ring fault-free, so
	// a fault record left in a recycled arena would show.
	chaos := testParams(topology.Ring, 1.0, config.NVMLast, arb.RoundRobin, wl)
	_, g := mustNetwork(t, chaos)
	fc, err := fault.Chaos(g, fault.ChaosSpec{
		Seed:      3,
		Horizon:   sim.Time(txns) * wl.MeanGap / 2,
		LinkKills: 2, CubeKills: 1, LaneFlaps: 2,
		LinkBER: 1e-6,
	})
	if err != nil {
		t.Fatal(err)
	}
	chaos.Fault = &fc
	add("ring-chaos", chaos)
	add("ring-rr-again", testParams(topology.Ring, 1.0, config.NVMLast, arb.RoundRobin, wl))
	return cases
}

// TestRecycledBuildIdentical: a run laid out in a recycled arena gives
// the Results of the same run built in new memory, whichever network
// the arena served before: larger or smaller, another kind, a fault
// plan or none. It checks an explicit release-and-rebuild chain, the
// pooled Simulate path, and Simulate on four concurrent workers.
func TestRecycledBuildIdentical(t *testing.T) {
	cases := recycleCases(t)
	want := make([]Results, len(cases))
	for i, c := range cases {
		in, err := buildUnpooled(c.p)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if want[i], err = in.Run(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
	}
	// Forward, then backward: every neighbor pair reuses in both orders.
	var order []int
	for i := range cases {
		order = append(order, i)
	}
	for i := len(cases) - 2; i >= 0; i-- {
		order = append(order, i)
	}

	var a *arena
	for _, i := range order {
		c := cases[i]
		in, err := buildIn(c.p, a)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if c.p.Fault == nil {
			for ei, d := range in.dirs {
				if d.ab.HasFaults() || d.ba.HasFaults() {
					t.Errorf("%s: edge %d has a fault record left in a recycled arena", c.name, ei)
				}
			}
		}
		got, err := in.Run()
		if err != nil {
			t.Fatalf("%s on a recycled arena: %v", c.name, err)
		}
		if got != want[i] {
			t.Errorf("%s on a recycled arena:\n got %+v\nwant %+v", c.name, got, want[i])
		}
		a = in.release()
	}

	for _, i := range order {
		got, err := Simulate(cases[i].p)
		if err != nil {
			t.Fatalf("%s: %v", cases[i].name, err)
		}
		if got != want[i] {
			t.Errorf("%s through Simulate:\n got %+v\nwant %+v", cases[i].name, got, want[i])
		}
	}

	err := fanout.Run(len(order), 4, func(j int) (Results, error) {
		return Simulate(cases[order[j]].p)
	}, func(j int, got Results) error {
		if i := order[j]; got != want[i] {
			return fmt.Errorf("%s on 4 workers:\n got %+v\nwant %+v", cases[i].name, got, want[i])
		}
		return nil
	})
	if err != nil {
		t.Error(err)
	}
}

// zeroedSlabs reports the slices in v, a struct of slices and structs
// of slices such as an arena, whose arrays are not all zero bytes up to
// their capacity.
func zeroedSlabs(v reflect.Value, path string) (dirty []string) {
	for i := 0; i < v.NumField(); i++ {
		f, name := v.Field(i), path+v.Type().Field(i).Name
		switch f.Kind() {
		case reflect.Struct:
			dirty = append(dirty, zeroedSlabs(f, name+".")...)
		case reflect.Slice:
			n := f.Cap() * int(f.Type().Elem().Size())
			for _, x := range unsafe.Slice((*byte)(f.UnsafePointer()), n) {
				if x != 0 {
					dirty = append(dirty, name)
					break
				}
			}
		}
	}
	return dirty
}

// TestRecycledArenaHoldsNoPointers: a released arena is all zero, so a
// pooled one keeps nothing of its dead network alive and the next build
// starts from memory as new. A slab whose elements every build
// overwrites (the node and edge tables, the routers' ports) would not
// show a stale pointer in Results, so this checks the bytes of every
// slab. The run has a fault plan, so the fault records are in use.
func TestRecycledArenaHoldsNoPointers(t *testing.T) {
	cases := recycleCases(t)
	c := cases[len(cases)-2]
	if c.p.Fault == nil {
		t.Fatalf("%s has no fault plan", c.name)
	}
	in, err := buildUnpooled(c.p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := in.Run(); err != nil {
		t.Fatal(err)
	}
	a := in.release()
	if len(a.faults) == 0 || len(a.banks) == 0 {
		t.Fatalf("released arena has %d fault records and %d banks", len(a.faults), len(a.banks))
	}
	if dirty := zeroedSlabs(reflect.ValueOf(*a), ""); len(dirty) > 0 {
		t.Errorf("released arena holds data in %v", dirty)
	}
	if in.pooled != nil || in.nodes != nil {
		t.Error("release left the instance holding its arena")
	}
}

// TestSimulateRecycledAllocs: a Simulate that finds an arena in the
// pool allocates none of the network's slabs, so it costs a fraction of
// a build in new memory (a tree build measures 217 KB warm, budget
// 239 KB). What is left is per run: the host port's tables and packet
// pool, the engine and its wheel, the mapper and the arbiters' tables.
// The tree's 2,000-transaction run measured 32.4 KB on go1.24/amd64;
// the budget is that plus 10%. The least of several runs is taken,
// since a run that moves to another CPU between two Simulates can miss
// the pool.
func TestSimulateRecycledAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	const budget = 35_700
	p := buildCases(t)[0].p
	if _, err := Simulate(p); err != nil {
		t.Fatal(err)
	}
	least := uint64(1 << 62)
	for i := 0; i < 5; i++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		if _, err := Simulate(p); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&m1)
		least = min(least, m1.TotalAlloc-m0.TotalAlloc)
	}
	t.Logf("recycled tree Simulate: %d B", least)
	if least > budget {
		t.Errorf("a Simulate after another allocates %d B, budget %d: its network is not recycled", least, budget)
	}
}
