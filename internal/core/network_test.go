package core

import (
	"slices"
	"sync"
	"testing"

	"memnet/internal/config"
	"memnet/internal/fault"
	"memnet/internal/packet"
	"memnet/internal/sim"
	"memnet/internal/topology"
)

// resetNetworks empties the network memo, so that the next build of
// every configuration generates its topology cold.
func resetNetworks() {
	networks.Lock()
	networks.m = nil
	networks.Unlock()
}

// memoSize reports how many networks the memo holds.
func memoSize() int {
	networks.Lock()
	defer networks.Unlock()
	return len(networks.m)
}

// routeTables snapshots every NextPort and Dist entry of g, both
// classes, row by row.
func routeTables(g *topology.Graph) []int {
	var out []int
	for c := topology.PathClass(0); c < topology.NumClasses; c++ {
		for a := range g.Nodes {
			for b := range g.Nodes {
				na, nb := packet.NodeID(a), packet.NodeID(b)
				out = append(out, g.NextPort(c, na, nb), g.Dist(c, na, nb))
			}
		}
	}
	return out
}

// TestBuildSharesGraph: built-in runs of one configuration share one
// graph, built once per process; concurrent builds share it safely; a
// fault run's kills and repairs leave it untouched; scenario runs build
// their own; and once the memo is full, new networks still build but
// are not kept.
func TestBuildSharesGraph(t *testing.T) {
	resetNetworks()
	t.Cleanup(resetNetworks)
	p := faultParams(t, topology.Ring, nil)

	t.Run("shared", func(t *testing.T) {
		a, err := Build(p)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Build(p)
		if err != nil {
			t.Fatal(err)
		}
		if a.Graph != b.Graph {
			t.Errorf("two builds of one configuration have graphs %p and %p", a.Graph, b.Graph)
		}
		spec, err := GraphSpec(&p)
		if err != nil {
			t.Fatal(err)
		}
		sp := p
		sp.Scenario = spec
		s1, err := Build(sp)
		if err != nil {
			t.Fatal(err)
		}
		s2, err := Build(sp)
		if err != nil {
			t.Fatal(err)
		}
		if s1.Graph == s2.Graph || s1.Graph == a.Graph {
			t.Errorf("scenario builds share a graph: %p, %p (built-in %p)", s1.Graph, s2.Graph, a.Graph)
		}
		if !slices.Equal(routeTables(s1.Graph), routeTables(a.Graph)) {
			t.Error("the exported scenario routes unlike the built-in graph")
		}
	})

	t.Run("concurrent", func(t *testing.T) {
		resetNetworks()
		q := p
		q.Transactions = 500
		const workers = 4
		var (
			wg     sync.WaitGroup
			graphs [workers]*topology.Graph
			res    [workers]Results
			errs   [workers]error
		)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				in, err := Build(q)
				if err != nil {
					errs[w] = err
					return
				}
				graphs[w] = in.Graph
				res[w], errs[w] = in.Run()
			}(w)
		}
		wg.Wait()
		for w := 0; w < workers; w++ {
			if errs[w] != nil {
				t.Fatal(errs[w])
			}
			if graphs[w] != graphs[0] {
				t.Errorf("concurrent build %d has graph %p, build 0 %p", w, graphs[w], graphs[0])
			}
			if res[w] != res[0] {
				t.Errorf("concurrent run %d: %+v, run 0: %+v", w, res[w], res[0])
			}
		}
	})

	t.Run("faults leave it untouched", func(t *testing.T) {
		resetNetworks()
		_, g, err := NetworkOf(&p)
		if err != nil {
			t.Fatal(err)
		}
		before := routeTables(g)
		fp := faultParams(t, topology.Ring, &fault.Config{
			KillLinks:   []fault.LinkKill{{Edge: 2, At: 500 * sim.Nanosecond}, {Edge: 2, At: 1500 * sim.Nanosecond}},
			RepairLinks: []fault.LinkRepair{{Edge: 2, At: 1200 * sim.Nanosecond}},
		})
		in, err := Build(fp)
		if err != nil {
			t.Fatal(err)
		}
		if in.Graph != g {
			t.Fatalf("the fault run built graph %p, the memo holds %p", in.Graph, g)
		}
		res, err := in.Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.Fault.LinksKilled != 2 || res.Fault.LinksRepaired != 1 {
			t.Fatalf("kills and repairs not applied: %+v", res.Fault)
		}
		if in.live == g {
			t.Error("the run ended on the pristine graph with a link still dead")
		}
		if !slices.Equal(routeTables(g), before) {
			t.Error("a fault run changed the memoized graph's route tables")
		}
	})

	t.Run("full memo", func(t *testing.T) {
		resetNetworks()
		// Chains of 1 to maxNetworks cubes fill the memo.
		techs := make([]config.MemTech, maxNetworks+1)
		for n := 1; n <= maxNetworks; n++ {
			if _, _, err := Network(topology.Chain, techs[:n], 4); err != nil {
				t.Fatal(err)
			}
		}
		if got := memoSize(); got != maxNetworks {
			t.Fatalf("memo holds %d networks after %d distinct ones, want %d", got, maxNetworks, maxNetworks)
		}
		a, err := Build(p)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Build(p)
		if err != nil {
			t.Fatal(err)
		}
		if got := memoSize(); got != maxNetworks {
			t.Errorf("memo grew to %d networks past its bound %d", got, maxNetworks)
		}
		if a.Graph == b.Graph {
			t.Error("a full memo kept a new network")
		}
		spec, err := GraphSpec(&p)
		if err != nil {
			t.Fatal(err)
		}
		want, err := topology.BuildScenario(spec)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(routeTables(a.Graph), routeTables(want)) || len(a.Graph.Edges) != len(want.Edges) {
			t.Error("a network built past the memo's bound differs from its spec's graph")
		}
		ra, err := a.Run()
		if err != nil {
			t.Fatal(err)
		}
		resetNetworks()
		rc, err := Simulate(p)
		if err != nil {
			t.Fatal(err)
		}
		if ra != rc {
			t.Errorf("run past the memo's bound: %+v, memoized: %+v", ra, rc)
		}
	})
}
