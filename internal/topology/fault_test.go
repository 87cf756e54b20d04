package topology

import (
	"testing"

	"memnet/internal/config"
	"memnet/internal/packet"
)

func techs(n int) []config.MemTech {
	ts := make([]config.MemTech, n)
	for i := range ts {
		ts[i] = config.DRAM
	}
	return ts
}

// walk follows next-hops from src to dst in the given class, returning
// the nodes visited (excluding src) or nil on a routing dead end.
func walk(g *Graph, class PathClass, src, dst packet.NodeID) []packet.NodeID {
	var path []packet.NodeID
	cur := src
	for cur != dst {
		port := g.NextPort(class, cur, dst)
		if port < 0 || len(path) > len(g.Nodes) {
			return nil
		}
		cur = g.neighbor(cur, port)
		path = append(path, cur)
	}
	return path
}

// TestDisablePreservesIndices: the degraded graph must keep node and
// edge identity so a wired network's port numbering survives the swap.
func TestDisablePreservesIndices(t *testing.T) {
	g, err := Build(Ring, techs(8))
	if err != nil {
		t.Fatal(err)
	}
	ng, err := g.Disable([]int{2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ng.Nodes) != len(g.Nodes) || len(ng.Edges) != len(g.Edges) {
		t.Fatal("Disable changed node/edge counts")
	}
	for n := range g.Nodes {
		id := packet.NodeID(n)
		if g.Degree(id) != ng.Degree(id) {
			t.Fatalf("node %d degree changed", n)
		}
		for p := 0; p < g.Degree(id); p++ {
			if g.neighbor(id, p) != ng.neighbor(id, p) {
				t.Fatalf("node %d port %d rewired", n, p)
			}
		}
	}
	if !ng.edgeDead(2) || ng.edgeDead(1) {
		t.Fatal("dead-edge mask wrong")
	}
}

// TestDisableRingRoutesAround: killing one ring segment forces all
// traffic the long way around, never crossing the dead edge.
func TestDisableRingRoutesAround(t *testing.T) {
	g, err := Build(Ring, techs(8))
	if err != nil {
		t.Fatal(err)
	}
	// Kill the segment on some cube-to-cube edge and verify every pair
	// still routes, avoiding that edge.
	dead := g.edgeBetween(2, 3)
	if dead < 0 {
		t.Fatal("ring missing edge 2-3")
	}
	ng, err := g.Disable([]int{dead}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range ng.Nodes {
		for _, b := range ng.Nodes {
			if a.ID == b.ID {
				continue
			}
			path := walk(ng, PathShort, a.ID, b.ID)
			if path == nil {
				t.Fatalf("no route %d->%d after edge kill", a.ID, b.ID)
			}
			prev := a.ID
			for _, hop := range path {
				if ng.edgeBetween(prev, hop) == dead {
					t.Fatalf("route %d->%d crosses dead edge", a.ID, b.ID)
				}
				prev = hop
			}
		}
	}
	// The 2->3 route must now be the 6-hop long way, not the dead 1-hop.
	if d := ng.Dist(PathShort, 2, 3); d != 7 {
		t.Fatalf("2->3 distance %d after kill, want 7 (long way)", d)
	}
}

// TestDisableChainEdgeDisconnects: a chain has no redundancy; killing
// any interior link must be rejected, not silently strand cubes.
func TestDisableChainEdgeDisconnects(t *testing.T) {
	g, err := Build(Chain, techs(8))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Disable([]int{3}, nil); err == nil {
		t.Fatal("chain link kill must disconnect")
	}
}

// TestDisableDeadNodeZombieRules: a fully-failed node keeps escape
// next-hops and stays a reachable destination, but no third-party route
// transits it.
func TestDisableDeadNodeZombieRules(t *testing.T) {
	g, err := Build(Ring, techs(8))
	if err != nil {
		t.Fatal(err)
	}
	const victim = packet.NodeID(3)
	ng, err := g.Disable(nil, []packet.NodeID{victim})
	if err != nil {
		t.Fatal(err)
	}
	if !ng.nodeDead(victim) {
		t.Fatal("dead-node mask not set")
	}
	for _, a := range ng.Nodes {
		for _, b := range ng.Nodes {
			if a.ID == b.ID {
				continue
			}
			path := walk(ng, PathShort, a.ID, b.ID)
			if path == nil {
				t.Fatalf("no route %d->%d with zombie node", a.ID, b.ID)
			}
			for i, hop := range path {
				if hop == victim && i != len(path)-1 {
					t.Fatalf("route %d->%d transits dead node %d: %v", a.ID, b.ID, victim, path)
				}
			}
		}
	}
}

// TestDisableHostAndBadArgs: the host cannot die, and out-of-range
// edges/nodes are rejected.
func TestDisableHostAndBadArgs(t *testing.T) {
	g, err := Build(Ring, techs(4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Disable(nil, []packet.NodeID{packet.HostNode}); err == nil {
		t.Fatal("host kill accepted")
	}
	if _, err := g.Disable([]int{len(g.Edges)}, nil); err == nil {
		t.Fatal("out-of-range edge accepted")
	}
	if _, err := g.Disable(nil, []packet.NodeID{packet.NodeID(len(g.Nodes))}); err == nil {
		t.Fatal("out-of-range node accepted")
	}
}

// TestDisableLayersFaults: a second Disable builds on the first graph's
// masks, and an accumulation that disconnects the network errors.
func TestDisableLayersFaults(t *testing.T) {
	g, err := Build(Ring, techs(8))
	if err != nil {
		t.Fatal(err)
	}
	e1 := g.edgeBetween(2, 3)
	e2 := g.edgeBetween(5, 6)
	ng, err := g.Disable([]int{e1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// A second cut splits the ring remnant in two.
	if _, err := ng.Disable([]int{e2}, nil); err == nil {
		t.Fatal("double ring cut must disconnect")
	}
	if !ng.edgeDead(e1) {
		t.Fatal("first fault lost")
	}
}

// TestDisableSkipListWriteFallback: writes route down the sequential
// chain (PathLong); when a chain hop dies, the write path must fall back
// onto the express skip links instead of stranding.
func TestDisableSkipListWriteFallback(t *testing.T) {
	g, err := Build(SkipList, techs(16))
	if err != nil {
		t.Fatal(err)
	}
	// Find a chain hop that is bypassed by a skip link: edge 9-10 (the
	// stride-8 skip 1->9 and 9->13 provide redundancy around it).
	dead := g.edgeBetween(9, 10)
	if dead < 0 {
		t.Fatal("skip list missing chain edge 9-10")
	}
	if g.Edges[dead].Express {
		t.Fatal("9-10 should be a chain edge")
	}
	ng, err := g.Disable([]int{dead}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Host->12 writes previously walked the chain through 9-10; now the
	// PathLong table must still deliver, using express links.
	path := walk(ng, PathLong, packet.HostNode, 12)
	if path == nil {
		t.Fatal("write path stranded by chain-hop death")
	}
	prev := packet.HostNode
	usedExpress := false
	for _, hop := range path {
		ei := ng.edgeBetween(prev, hop)
		if ei == dead {
			t.Fatalf("write path crosses dead edge: %v", path)
		}
		if ng.Edges[ei].Express {
			usedExpress = true
		}
		prev = hop
	}
	if !usedExpress {
		t.Fatalf("write fallback did not use skip links: %v", path)
	}
	// Reads keep working too.
	if walk(ng, PathShort, packet.HostNode, 12) == nil {
		t.Fatal("read path stranded")
	}
}
