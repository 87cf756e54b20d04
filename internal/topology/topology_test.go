package topology

import (
	"testing"
	"testing/quick"

	"memnet/internal/config"
	"memnet/internal/packet"
)

func dram(n int) []config.MemTech { return make([]config.MemTech, n) }

// neighbor reports the node reached through the given port of n.
func (g *Graph) neighbor(n packet.NodeID, port int) packet.NodeID {
	return g.adj[n][port].to
}

// edgeDead reports whether edge ei has been failed by Disable.
func (g *Graph) edgeDead(ei int) bool { return g.deadEdge != nil && g.deadEdge[ei] }

// nodeDead reports whether node n has been fully failed by Disable.
func (g *Graph) nodeDead(n packet.NodeID) bool { return g.deadNode != nil && g.deadNode[n] }

// edgeBetween returns the index of the edge connecting a and b, or -1.
func (g *Graph) edgeBetween(a, b packet.NodeID) int {
	for ei, e := range g.Edges {
		if (e.A == a && e.B == b) || (e.A == b && e.B == a) {
			return ei
		}
	}
	return -1
}

func build(t *testing.T, k Kind, techs []config.MemTech) *Graph {
	t.Helper()
	g, err := Build(k, techs)
	if err != nil {
		t.Fatalf("%v: %v", k, err)
	}
	return g
}

func TestChainStructure(t *testing.T) {
	g := build(t, Chain, dram(16))
	if len(g.CubeIDs()) != 16 || len(g.Edges) != 16 {
		t.Fatalf("cubes=%d edges=%d", len(g.CubeIDs()), len(g.Edges))
	}
	// Linear distances 1..16.
	for i, id := range g.CubeIDs() {
		if d := g.Dist(PathShort, packet.HostNode, id); d != i+1 {
			t.Fatalf("cube %d at distance %d, want %d", id, d, i+1)
		}
	}
	if g.MaxHostDist() != 16 {
		t.Fatalf("diameter %d", g.MaxHostDist())
	}
}

func TestRingHalvesDistance(t *testing.T) {
	g := build(t, Ring, dram(16))
	if len(g.Edges) != 17 { // host link + 16-cycle
		t.Fatalf("edges=%d", len(g.Edges))
	}
	// Farthest cube is halfway around: 1 + 8 = 9.
	if g.MaxHostDist() != 9 {
		t.Fatalf("ring diameter %d, want 9", g.MaxHostDist())
	}
	chain := build(t, Chain, dram(16))
	if g.MeanHostDist() >= chain.MeanHostDist()*0.6 {
		t.Fatalf("ring mean %.2f not roughly half of chain %.2f",
			g.MeanHostDist(), chain.MeanHostDist())
	}
}

func TestTreeLogDiameter(t *testing.T) {
	g := build(t, Tree, dram(16))
	// Ternary tree of 16: 1 + 3 + 9 + 3 -> depth 4.
	if g.MaxHostDist() != 4 {
		t.Fatalf("tree diameter %d, want 4", g.MaxHostDist())
	}
	// Root has host + 3 children = 4 ports; no cube exceeds 4.
	for _, n := range g.Nodes {
		if n.Kind == Cube && g.Degree(n.ID) > MaxCubePorts {
			t.Fatalf("cube %d degree %d", n.ID, g.Degree(n.ID))
		}
	}
}

// TestSkipListMatchesFig8 pins the paper's Fig. 8 structure for 16
// cubes: the farthest cube is reachable in 5 hops via strides 8,4,2,1,
// writes walk the full chain, and the port budget holds.
func TestSkipListMatchesFig8(t *testing.T) {
	g := build(t, SkipList, dram(16))
	if g.MaxHostDist() != 5 {
		t.Fatalf("skip-list diameter %d, want 5 (Fig. 8)", g.MaxHostDist())
	}
	// Express links: exactly {1-9, 9-13, 13-15, 1-5, 5-7} (node IDs).
	type pair struct{ a, b packet.NodeID }
	want := map[pair]bool{
		{1, 9}: true, {9, 13}: true, {13, 15}: true, {1, 5}: true, {5, 7}: true,
	}
	got := 0
	for _, e := range g.Edges {
		if !e.Express {
			continue
		}
		got++
		if !want[pair{e.A, e.B}] && !want[pair{e.B, e.A}] {
			t.Fatalf("unexpected skip link %d-%d", e.A, e.B)
		}
	}
	if got != len(want) {
		t.Fatalf("%d skip links, want %d", got, len(want))
	}
	// Write path (PathLong) is the pure chain: distance to cube k = k.
	for i, id := range g.CubeIDs() {
		if d := g.Dist(PathLong, packet.HostNode, id); d != i+1 {
			t.Fatalf("write path to cube %d = %d, want %d", id, d, i+1)
		}
	}
	// The farthest cube's read path must beat its write path by 11 hops.
	last := g.CubeIDs()[15]
	if s, l := g.Dist(PathShort, packet.HostNode, last), g.Dist(PathLong, packet.HostNode, last); l-s != 11 {
		t.Fatalf("short %d vs long %d", s, l)
	}
}

func TestSkipListSmallSizes(t *testing.T) {
	for n := 1; n <= 20; n++ {
		g := build(t, SkipList, dram(n))
		chain := build(t, Chain, dram(n))
		if g.MaxHostDist() > chain.MaxHostDist() {
			t.Fatalf("n=%d: skip list slower than chain", n)
		}
		if n >= 8 && g.MaxHostDist() >= chain.MaxHostDist() {
			t.Fatalf("n=%d: skip links gained nothing", n)
		}
	}
}

func TestMetaCubeStructure(t *testing.T) {
	g := build(t, MetaCube, dram(16))
	ifaces := 0
	for _, n := range g.Nodes {
		if n.Kind == Iface {
			ifaces++
			// Interface chips may exceed the cube port budget — that is
			// the point of the interposer router.
			if g.Degree(n.ID) < 4 {
				t.Fatalf("iface %d degree %d", n.ID, g.Degree(n.ID))
			}
		}
		if n.Kind == Cube && g.Degree(n.ID) != 1 {
			t.Fatalf("member cube %d degree %d, want 1", n.ID, g.Degree(n.ID))
		}
	}
	if ifaces != 4 {
		t.Fatalf("ifaces = %d, want 4", ifaces)
	}
	// Interposer links: one per cube.
	ip := 0
	for _, e := range g.Edges {
		if e.Interposer {
			ip++
		}
	}
	if ip != 16 {
		t.Fatalf("interposer links = %d, want 16", ip)
	}
	// Star-of-ifaces: worst cube = host->iface1->ifaceK->cube = 3.
	if g.MaxHostDist() != 3 {
		t.Fatalf("metacube diameter %d, want 3", g.MaxHostDist())
	}
}

func TestMetaCubePartialGroup(t *testing.T) {
	g := build(t, MetaCube, dram(10)) // 4+4+2
	ifaces := 0
	for _, n := range g.Nodes {
		if n.Kind == Iface {
			ifaces++
		}
	}
	if ifaces != 3 {
		t.Fatalf("ifaces = %d, want 3", ifaces)
	}
	if len(g.CubeIDs()) != 10 {
		t.Fatal("cube count")
	}
}

func TestPlacementOrdering(t *testing.T) {
	techs := []config.MemTech{
		config.DRAM, config.DRAM, config.DRAM, config.DRAM,
		config.DRAM, config.DRAM, config.DRAM, config.DRAM,
		config.NVM, config.NVM,
	}
	for _, k := range Kinds {
		g := build(t, k, techs)
		// NVM cubes (positions 8,9) must be at least as far from the
		// host as the average DRAM cube.
		var dSum, dN, nSum, nN float64
		for _, n := range g.Nodes {
			if n.Kind != Cube {
				continue
			}
			d := float64(g.Dist(PathShort, packet.HostNode, n.ID))
			if n.Tech == config.NVM {
				nSum += d
				nN++
			} else {
				dSum += d
				dN++
			}
		}
		if nSum/nN < dSum/dN {
			t.Errorf("%v: NVM-last placement put NVM nearer (%.2f) than DRAM (%.2f)",
				k, nSum/nN, dSum/dN)
		}
	}
}

func TestHostDegreeOne(t *testing.T) {
	for _, k := range Kinds {
		for _, n := range []int{1, 2, 4, 10, 16, 32} {
			g := build(t, k, dram(n))
			if g.Degree(packet.HostNode) != 1 {
				t.Fatalf("%v n=%d: host degree %d", k, n, g.Degree(packet.HostNode))
			}
		}
	}
}

func TestPortBudget(t *testing.T) {
	for _, k := range Kinds {
		for _, n := range []int{1, 2, 3, 4, 7, 10, 16, 32, 64} {
			g := build(t, k, dram(n))
			for _, node := range g.Nodes {
				if node.Kind == Cube && g.Degree(node.ID) > MaxCubePorts {
					t.Fatalf("%v n=%d: cube %d has %d ports", k, n, node.ID, g.Degree(node.ID))
				}
			}
		}
	}
}

// TestRoutesReachDestination: following NextPort from any node reaches
// the destination within NumNodes hops for both classes.
func TestRoutesReachDestination(t *testing.T) {
	for _, k := range Kinds {
		for _, n := range []int{4, 10, 16, 32} {
			g := build(t, k, dram(n))
			for class := PathClass(0); class < NumClasses; class++ {
				for _, src := range g.Nodes {
					for _, dst := range g.Nodes {
						cur := src.ID
						for hops := 0; cur != dst.ID; hops++ {
							if hops > g.NumNodes() {
								t.Fatalf("%v n=%d class=%d: loop %d->%d",
									k, n, class, src.ID, dst.ID)
							}
							port := g.NextPort(class, cur, dst.ID)
							if port < 0 {
								t.Fatalf("%v: no route %d->%d", k, cur, dst.ID)
							}
							cur = g.neighbor(cur, port)
						}
					}
				}
			}
		}
	}
}

// TestRouteNeverUTurns: the next hop toward a destination never returns
// through the port a shortest-path packet arrived on (the router relies
// on this).
func TestRouteNeverUTurns(t *testing.T) {
	for _, k := range Kinds {
		g := build(t, k, dram(16))
		for class := PathClass(0); class < NumClasses; class++ {
			for _, src := range g.Nodes {
				for _, dst := range g.Nodes {
					if src.ID == dst.ID {
						continue
					}
					// Walk the path, checking consecutive hops differ.
					prev := packet.NodeID(-1)
					cur := src.ID
					for cur != dst.ID {
						port := g.NextPort(class, cur, dst.ID)
						next := g.neighbor(cur, port)
						if next == prev {
							t.Fatalf("%v class %d: u-turn at %d on path %d->%d",
								k, class, cur, src.ID, dst.ID)
						}
						prev, cur = cur, next
					}
				}
			}
		}
	}
}

// TestDistMatchesWalk: Dist equals the walked hop count.
func TestDistMatchesWalk(t *testing.T) {
	g := build(t, SkipList, dram(16))
	f := func(a, b uint8) bool {
		src := packet.NodeID(int(a) % g.NumNodes())
		dst := packet.NodeID(int(b) % g.NumNodes())
		for class := PathClass(0); class < NumClasses; class++ {
			cur, hops := src, 0
			for cur != dst {
				cur = g.neighbor(cur, g.NextPort(class, cur, dst))
				hops++
			}
			if hops != g.Dist(class, src, dst) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLongPathAvoidsExpress(t *testing.T) {
	g := build(t, SkipList, dram(16))
	for _, dst := range g.CubeIDs() {
		cur := packet.HostNode
		for cur != dst {
			port := g.NextPort(PathLong, cur, dst)
			if g.EdgeAt(cur, port).Express {
				t.Fatalf("write path to %d uses skip link at %d", dst, cur)
			}
			cur = g.neighbor(cur, port)
		}
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := Build(Chain, nil); err == nil {
		t.Fatal("empty cube list must fail")
	}
	if _, err := Build(Kind(99), dram(4)); err == nil {
		t.Fatal("unknown kind must fail")
	}
}

func TestStringers(t *testing.T) {
	names := map[Kind]string{Chain: "Chain", Ring: "Ring", Tree: "Tree",
		SkipList: "SkipList", MetaCube: "MetaCube"}
	letters := map[Kind]string{Chain: "C", Ring: "R", Tree: "T",
		SkipList: "SL", MetaCube: "MC"}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("%d.String() = %q", k, k.String())
		}
		if k.Letter() != letters[k] {
			t.Errorf("%d.Letter() = %q", k, k.Letter())
		}
	}
}

func TestClassOf(t *testing.T) {
	if ClassOf(packet.WriteReq, false) != PathLong {
		t.Fatal("writes default to the long path")
	}
	if ClassOf(packet.WriteReq, true) != PathShort {
		t.Fatal("shortcut must re-admit writes to skips")
	}
	for _, k := range []packet.Kind{packet.ReadReq, packet.ReadResp, packet.WriteAck} {
		if ClassOf(k, false) != PathShort {
			t.Fatalf("%v should be short-path", k)
		}
	}
}

func TestEdgeIndexConsistency(t *testing.T) {
	g := build(t, Ring, dram(8))
	for _, n := range g.Nodes {
		for p := 0; p < g.Degree(n.ID); p++ {
			e := g.Edges[g.EdgeIndex(n.ID, p)]
			if e != g.EdgeAt(n.ID, p) {
				t.Fatal("EdgeIndex and EdgeAt disagree")
			}
			if e.A != n.ID && e.B != n.ID {
				t.Fatal("edge does not touch node")
			}
		}
	}
}

func TestMeshStructure(t *testing.T) {
	for _, n := range []int{4, 10, 16, 32} {
		g := build(t, Mesh, dram(n))
		if len(g.CubeIDs()) != n {
			t.Fatalf("n=%d: cube count %d", n, len(g.CubeIDs()))
		}
		for _, node := range g.Nodes {
			if node.Kind == Cube && g.Degree(node.ID) > MaxCubePorts {
				t.Fatalf("n=%d: cube %d degree %d", n, node.ID, g.Degree(node.ID))
			}
		}
	}
	// The corner cube carries the host link plus two mesh links.
	g := build(t, Mesh, dram(16))
	if g.Degree(g.CubeIDs()[0]) != 3 {
		t.Fatalf("corner degree %d, want 3", g.Degree(g.CubeIDs()[0]))
	}
}

// TestMeshWorseThanTree verifies the paper's §3 justification for
// excluding the mesh: its average hop count exceeds the tree's.
func TestMeshWorseThanTree(t *testing.T) {
	for _, n := range []int{9, 16, 32} {
		mesh := build(t, Mesh, dram(n))
		tree := build(t, Tree, dram(n))
		if mesh.MeanHostDist() <= tree.MeanHostDist() {
			t.Fatalf("n=%d: mesh mean %.2f <= tree %.2f",
				n, mesh.MeanHostDist(), tree.MeanHostDist())
		}
	}
}

func TestMeshPositionsByDistance(t *testing.T) {
	g := build(t, Mesh, dram(16))
	// Position order must be non-decreasing in host distance.
	byPos := make(map[int]int)
	for _, nd := range g.Nodes {
		if nd.Kind == Cube {
			byPos[nd.Pos] = g.Dist(PathShort, packet.HostNode, nd.ID)
		}
	}
	for p := 1; p < 16; p++ {
		if byPos[p] < byPos[p-1] {
			t.Fatalf("position %d nearer (%d) than position %d (%d)",
				p, byPos[p], p-1, byPos[p-1])
		}
	}
}

// metaCube builds a 16-cube all-DRAM MetaCube with the given group.
func metaCube(group int) (*Graph, error) {
	s, err := Generate(MetaCube, dram(16), group)
	if err != nil {
		return nil, err
	}
	return BuildScenario(s)
}

func TestMetaCubeGroupOption(t *testing.T) {
	for _, group := range []int{2, 4, 8} {
		g, err := metaCube(group)
		if err != nil {
			t.Fatal(err)
		}
		ifaces := 0
		for _, n := range g.Nodes {
			if n.Kind == Iface {
				ifaces++
			}
			if n.Kind == Cube && g.Degree(n.ID) != 1 {
				t.Fatalf("group=%d: cube degree %d", group, g.Degree(n.ID))
			}
		}
		if want := (16 + group - 1) / group; ifaces != want {
			t.Fatalf("group=%d: ifaces=%d want %d", group, ifaces, want)
		}
	}
	// Larger groups shrink the external network.
	small, _ := metaCube(2)
	big, _ := metaCube(8)
	if big.MeanHostDist() >= small.MeanHostDist() {
		t.Fatalf("group 8 mean %.2f not below group 2 mean %.2f",
			big.MeanHostDist(), small.MeanHostDist())
	}
	if _, err := metaCube(0); err == nil {
		t.Fatal("zero group must fail")
	}
}
