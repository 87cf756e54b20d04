package core

import (
	"testing"
	"testing/quick"

	"memnet/internal/arb"
	"memnet/internal/config"
	"memnet/internal/packet"
	"memnet/internal/topology"
	"memnet/internal/workload"
)

// TestFuzzConfigurations drives randomized short simulations across the
// whole parameter space and checks the global invariants: completion,
// transaction conservation, non-negative latency components, and
// positive energy. Any panic (buffer overflow, credit loss, route hole)
// fails the test.
func TestFuzzConfigurations(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzz sweep")
	}
	suite := workload.Suite()
	f := func(topoSel, fracSel, placeSel, arbSel, wlSel uint8, seed uint16) bool {
		topo := topology.AllKinds[int(topoSel)%len(topology.AllKinds)]
		fracs := []float64{1, 0.75, 0.5, 0.25, 0}
		sys := config.Default()
		sys.DRAMFraction = fracs[int(fracSel)%len(fracs)]
		sys.Placement = config.Placement(placeSel % 2)
		p := Params{
			Sys:          sys,
			Topo:         topo,
			Arb:          arb.Kind(arbSel % 3),
			Workload:     suite[int(wlSel)%len(suite)],
			Transactions: 400,
			Seed:         uint64(seed) + 1,
		}
		res, err := Simulate(p)
		if err != nil {
			t.Logf("%s: %v", p.Label(), err)
			return false
		}
		if res.Transactions != 400 || res.Reads+res.Writes != 400 {
			return false
		}
		if res.MeanLatency <= 0 || res.FinishTime <= 0 {
			return false
		}
		if res.Breakdown.ToMem < 0 || res.Breakdown.InMem <= 0 || res.Breakdown.FromMem < 0 {
			return false
		}
		if res.Energy.TotalPJ() <= 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestFuzzFailLinks removes random non-critical edges (as scenario
// edits) from redundant topologies and checks the degraded network
// still completes; removals that disconnect must error cleanly (never
// panic or hang).
func TestFuzzFailLinks(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzz sweep")
	}
	wl, _ := workload.ByName("DCT")
	f := func(topoSel, edgeSel uint8) bool {
		topos := []topology.Kind{topology.Ring, topology.SkipList, topology.Mesh}
		topo := topos[int(topoSel)%len(topos)]
		p := testParams(topo, 1.0, config.NVMLast, arb.RoundRobin, wl)
		p.Transactions = 300
		s, _, err := NetworkOf(&p)
		if err != nil {
			return false
		}
		nEdges := len(s.Links)
		ei := 1 + int(edgeSel)%(nEdges-1) // never the host link
		res, err := simulateCut(t, p, ei)
		if err != nil {
			// Some cuts legitimately disconnect (mesh corners, skip-list
			// tail); a clean error is acceptable. A wrong RESULT is not.
			return true
		}
		return res.Transactions == 300
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestFuzzReplayDeterminism: record a random run, replay it, and demand
// bit-identical results.
func TestFuzzReplayDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzz sweep")
	}
	suite := workload.Suite()
	f := func(wlSel uint8, seed uint16) bool {
		p := testParams(topology.Tree, 1.0, config.NVMLast, arb.RoundRobin,
			suite[int(wlSel)%len(suite)])
		p.Transactions = 300
		p.Seed = uint64(seed) + 1
		p.Record = true
		in, err := Build(p)
		if err != nil {
			return false
		}
		orig, err := in.Run()
		if err != nil {
			return false
		}
		rp := p
		rp.Record = false
		rp.Replay = in.Recorder.Trace()
		rep, err := Simulate(rp)
		if err != nil {
			return false
		}
		return rep.FinishTime == orig.FinishTime &&
			rep.MeanLatency == orig.MeanLatency &&
			rep.Reads == orig.Reads
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

var _ = packet.HostNode
