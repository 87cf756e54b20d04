package core

import (
	"testing"

	"memnet/internal/arb"
	"memnet/internal/config"
	"memnet/internal/scenario"
	"memnet/internal/topology"
	"memnet/internal/workload"
)

func TestDeterminism(t *testing.T) {
	wl, _ := workload.ByName("DCT")
	p := testParams(topology.SkipList, 0.5, config.NVMLast, arb.DistanceAugmented, wl)
	a, err := Simulate(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(p)
	if err != nil {
		t.Fatal(err)
	}
	if a.FinishTime != b.FinishTime || a.MeanLatency != b.MeanLatency ||
		a.Events != b.Events || a.Energy != b.Energy {
		t.Fatalf("non-deterministic: %+v vs %+v", a, b)
	}
}

func TestSeedsChangeResults(t *testing.T) {
	wl, _ := workload.ByName("DCT")
	p := testParams(topology.Tree, 1.0, config.NVMLast, arb.RoundRobin, wl)
	// Adjacent seeds are independent streams too: an even seed must not
	// alias the odd one above it.
	for _, pair := range [][2]uint64{{42, 99}, {2, 3}} {
		p.Seed = pair[0]
		a, _ := Simulate(p)
		p.Seed = pair[1]
		b, _ := Simulate(p)
		if a == b {
			t.Fatalf("seeds %d and %d produced identical runs", pair[0], pair[1])
		}
	}
}

// TestConfigMatrixCompletes drives every (topology, ratio, placement,
// arbitration) combination to completion — the simulator must be
// deadlock-free across the full design space.
func TestConfigMatrixCompletes(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix sweep")
	}
	wl, _ := workload.ByName("BACKPROP") // write bursts stress the skip list
	for _, topo := range topology.Kinds {
		for _, frac := range []float64{1, 0.5, 0} {
			for _, place := range []config.Placement{config.NVMLast, config.NVMFirst} {
				for _, ak := range []arb.Kind{arb.RoundRobin, arb.Distance, arb.DistanceAugmented} {
					p := testParams(topo, frac, place, ak, wl)
					p.Transactions = 1200
					res, err := Simulate(p)
					if err != nil {
						t.Fatalf("%s/%v: %v", p.Label(), ak, err)
					}
					if res.Transactions != 1200 {
						t.Fatalf("%s/%v: completed %d", p.Label(), ak, res.Transactions)
					}
				}
			}
		}
	}
}

func TestTransactionConservation(t *testing.T) {
	wl, _ := workload.ByName("KMEANS")
	p := testParams(topology.Ring, 0.5, config.NVMFirst, arb.Distance, wl)
	res, err := Simulate(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reads+res.Writes != res.Transactions {
		t.Fatalf("reads %d + writes %d != %d", res.Reads, res.Writes, res.Transactions)
	}
	if res.MeanHops < 1 { // response path crosses the host link at least once
		t.Fatalf("mean hops %.2f implausible", res.MeanHops)
	}
}

func TestLatencyBreakdownConsistency(t *testing.T) {
	wl, _ := workload.ByName("BUFF")
	p := testParams(topology.Tree, 1.0, config.NVMLast, arb.RoundRobin, wl)
	res, err := Simulate(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Breakdown.Total() != res.MeanLatency {
		t.Fatal("breakdown does not sum to mean latency")
	}
	if res.Breakdown.ToMem <= 0 || res.Breakdown.InMem <= 0 || res.Breakdown.FromMem <= 0 {
		t.Fatalf("component non-positive: %+v", res.Breakdown)
	}
}

func TestTechOrder(t *testing.T) {
	sys := config.Default()
	sys.DRAMFraction = 0.5
	sys.Placement = config.NVMLast
	techs, err := TechOrder(&sys)
	if err != nil {
		t.Fatal(err)
	}
	if len(techs) != 10 {
		t.Fatalf("len %d", len(techs))
	}
	for i := 0; i < 8; i++ {
		if techs[i] != config.DRAM {
			t.Fatal("NVM-L must put DRAM first")
		}
	}
	for i := 8; i < 10; i++ {
		if techs[i] != config.NVM {
			t.Fatal("NVM-L must put NVM last")
		}
	}
	sys.Placement = config.NVMFirst
	techs, _ = TechOrder(&sys)
	if techs[0] != config.NVM || techs[1] != config.NVM || techs[2] != config.DRAM {
		t.Fatal("NVM-F must put NVM first")
	}
}

func TestLabels(t *testing.T) {
	wl, _ := workload.ByName("NW")
	cases := []struct {
		frac  float64
		place config.Placement
		topo  topology.Kind
		want  string
	}{
		{1, config.NVMLast, topology.Tree, "100%-T"},
		{0.5, config.NVMLast, topology.SkipList, "50%-SL (NVM-L)"},
		{0.5, config.NVMFirst, topology.Chain, "50%-C (NVM-F)"},
		{0, config.NVMLast, topology.MetaCube, "0%-MC"},
	}
	for _, c := range cases {
		p := testParams(c.topo, c.frac, c.place, arb.RoundRobin, wl)
		if got := p.Label(); got != c.want {
			t.Errorf("Label() = %q, want %q", got, c.want)
		}
	}
}

func TestBuildErrors(t *testing.T) {
	wl, _ := workload.ByName("NW")
	p := testParams(topology.Tree, 1.0, config.NVMLast, arb.RoundRobin, wl)
	p.Transactions = 0
	if _, err := Build(p); err == nil {
		t.Fatal("zero transactions must fail")
	}
	p = testParams(topology.Tree, 1.0, config.NVMLast, arb.RoundRobin, wl)
	p.Sys.Ports = 0
	if _, err := Build(p); err == nil {
		t.Fatal("invalid system must fail")
	}
}

func TestTechBiasHops(t *testing.T) {
	sys := config.Default()
	b := techBiasHops(&sys)
	// (50ns - 18ns) / (2ns serdes + ~2.67ns serialization) ~ 6.
	if b < 4 || b > 9 {
		t.Fatalf("bias = %d hops, expected around 6", b)
	}
}

// TestNVMPlacementDistance: with NVM-L the average NVM response arrives
// later than with NVM-F on a chain (more hops), all else equal — a
// structural sanity check of placement wiring.
func TestPlacementAffectsLatency(t *testing.T) {
	wl, _ := workload.ByName("NW") // low load isolates base latency
	last := testParams(topology.Chain, 0.5, config.NVMLast, arb.RoundRobin, wl)
	first := testParams(topology.Chain, 0.5, config.NVMFirst, arb.RoundRobin, wl)
	rl, err := Simulate(last)
	if err != nil {
		t.Fatal(err)
	}
	rf, err := Simulate(first)
	if err != nil {
		t.Fatal(err)
	}
	// NVM-L pays network hops on its slow half: strictly more mean hops
	// weighted toward the far end is not guaranteed, but mean latency on
	// a chain must differ measurably between placements.
	if rl.MeanLatency == rf.MeanLatency {
		t.Fatal("placement had no effect at all")
	}
}

func TestWrongQuadrantCounted(t *testing.T) {
	wl, _ := workload.ByName("BUFF")
	p := testParams(topology.Chain, 1.0, config.NVMLast, arb.RoundRobin, wl)
	in, err := Build(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := in.Run(); err != nil {
		t.Fatal(err)
	}
	var wrong, total uint64
	for _, c := range in.nodes {
		for _, q := range c.quads {
			s := q.Stats()
			wrong += s.WrongQuad
			total += s.Reads + s.Writes
		}
	}
	if total == 0 {
		t.Fatal("no vault traffic")
	}
	// Chain cubes have 1-2 external links but 4 quadrants: many requests
	// necessarily land on the "wrong" link.
	if wrong == 0 {
		t.Fatal("wrong-quadrant penalty never applied")
	}
}

// simulateCut simulates p with edge ei of its built-in topology failed
// for the whole run, expressed as a scenario edit: the generated spec
// (link order is edge order) with links[ei] deleted, taken through a
// JSON round trip. A cut the scenario format rejects (the host link)
// returns the decode error, as a disconnecting cut returns Build's.
func simulateCut(t *testing.T, p Params, ei int) (Results, error) {
	t.Helper()
	s, err := GraphSpec(&p)
	if err != nil {
		t.Fatal(err)
	}
	s.Links = append(s.Links[:ei], s.Links[ei+1:]...)
	if p.Scenario, err = scenario.Decode(s.Canonical()); err != nil {
		return Results{}, err
	}
	return Simulate(p)
}

// TestLinkFailureRerouting: redundant topologies survive a failed link
// (with a latency cost); non-redundant ones refuse to build.
func TestLinkFailureRerouting(t *testing.T) {
	wl, _ := workload.ByName("BUFF")
	// Ring: fail the cycle link adjacent to the root cube (edge index 1
	// is cube0-cube1; the host link is edge 0).
	p := testParams(topology.Ring, 1.0, config.NVMLast, arb.RoundRobin, wl)
	p.Transactions = 1500
	healthy, err := Simulate(p)
	if err != nil {
		t.Fatal(err)
	}
	degraded, err := simulateCut(t, p, 1)
	if err != nil {
		t.Fatalf("ring should survive one cut: %v", err)
	}
	if degraded.MeanLatency <= healthy.MeanLatency {
		t.Fatalf("degraded ring not slower: %v vs %v",
			degraded.MeanLatency, healthy.MeanLatency)
	}

	// Skip-list: failing a central chain link forces writes onto skips.
	p = testParams(topology.SkipList, 1.0, config.NVMLast, arb.RoundRobin, wl)
	p.Transactions = 1500
	// A chain link (edge 0 is host, 1.. are chain).
	if _, err := simulateCut(t, p, 2); err != nil {
		t.Fatalf("skip-list should reroute around a chain cut: %v", err)
	}

	// Chain: any cut disconnects.
	p = testParams(topology.Chain, 1.0, config.NVMLast, arb.RoundRobin, wl)
	if _, err := simulateCut(t, p, 3); err == nil {
		t.Fatal("chain must not survive a cut")
	}

	// Host link: never survivable.
	p = testParams(topology.Ring, 1.0, config.NVMLast, arb.RoundRobin, wl)
	if _, err := simulateCut(t, p, 0); err == nil {
		t.Fatal("host link cut must fail")
	}
}
