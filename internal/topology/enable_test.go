package topology

import (
	"testing"

	"memnet/internal/packet"
)

// sameRoutes reports whether two graphs compute identical next-hops
// and distances for every (class, src, dst) triple.
func sameRoutes(a, b *Graph) bool {
	for class := PathShort; class <= PathLong; class++ {
		for _, s := range a.Nodes {
			for _, d := range a.Nodes {
				if s.ID == d.ID {
					continue
				}
				if a.NextPort(class, s.ID, d.ID) != b.NextPort(class, s.ID, d.ID) {
					return false
				}
				if a.Dist(class, s.ID, d.ID) != b.Dist(class, s.ID, d.ID) {
					return false
				}
			}
		}
	}
	return true
}

// TestEnableRoutesBack: repairing the only dead edge restores the exact
// pre-fault route tables — route-back mirrors route-around.
func TestEnableRoutesBack(t *testing.T) {
	g, err := Build(Ring, techs(8))
	if err != nil {
		t.Fatal(err)
	}
	dead := g.edgeBetween(2, 3)
	broken, err := g.Disable([]int{dead}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sameRoutes(g, broken) {
		t.Fatal("ring cut did not change any route")
	}
	healed, err := broken.Enable([]int{dead}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if healed.edgeDead(dead) {
		t.Fatal("repaired edge still masked dead")
	}
	if !sameRoutes(g, healed) {
		t.Fatal("repaired graph routes differently from the pristine build")
	}
	if d := healed.Dist(PathShort, 2, 3); d != 1 {
		t.Fatalf("2->3 distance after repair = %d, want the direct hop", d)
	}
}

// TestEnableNodeRoutesBack: reviving a fully-failed node lifts the
// no-transit rule and restores pristine routing.
func TestEnableNodeRoutesBack(t *testing.T) {
	g, err := Build(Ring, techs(8))
	if err != nil {
		t.Fatal(err)
	}
	const victim = packet.NodeID(3)
	broken, err := g.Disable(nil, []packet.NodeID{victim})
	if err != nil {
		t.Fatal(err)
	}
	healed, err := broken.Enable(nil, []packet.NodeID{victim})
	if err != nil {
		t.Fatal(err)
	}
	if healed.nodeDead(victim) {
		t.Fatal("repaired node still masked dead")
	}
	if !sameRoutes(g, healed) {
		t.Fatal("node repair did not restore pristine routes")
	}
}

// TestEnablePartialRepair: with two faults, repairing one keeps the
// other's mask and its route-around in force.
func TestEnablePartialRepair(t *testing.T) {
	g, err := Build(Ring, techs(8))
	if err != nil {
		t.Fatal(err)
	}
	// The victim is an endpoint of the dead edge, so both faults can
	// coexist on a ring without stranding anything (the victim stays
	// reachable as a destination over its surviving link).
	dead := g.edgeBetween(2, 3)
	const victim = packet.NodeID(3)
	broken, err := g.Disable([]int{dead}, []packet.NodeID{victim})
	if err != nil {
		t.Fatal(err)
	}
	partial, err := broken.Enable([]int{dead}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if partial.edgeDead(dead) {
		t.Fatal("repaired edge still dead")
	}
	if !partial.nodeDead(victim) {
		t.Fatal("unrelated node fault lost by the repair")
	}
	if sameRoutes(g, partial) {
		t.Fatal("partial repair restored pristine routes despite the dead node")
	}
	full, err := partial.Enable(nil, []packet.NodeID{victim})
	if err != nil {
		t.Fatal(err)
	}
	if !sameRoutes(g, full) {
		t.Fatal("full repair did not restore pristine routes")
	}
}

// TestEnableRejects: repairs of healthy or out-of-range targets fail.
func TestEnableRejects(t *testing.T) {
	g, err := Build(Ring, techs(8))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Enable([]int{0}, nil); err == nil {
		t.Fatal("repair of a live edge accepted")
	}
	if _, err := g.Enable(nil, []packet.NodeID{3}); err == nil {
		t.Fatal("repair of a live node accepted")
	}
	if _, err := g.Enable([]int{len(g.Edges)}, nil); err == nil {
		t.Fatal("out-of-range edge repair accepted")
	}
	if _, err := g.Enable(nil, []packet.NodeID{packet.HostNode}); err == nil {
		t.Fatal("host repair accepted")
	}
}
