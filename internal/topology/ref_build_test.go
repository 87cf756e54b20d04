package topology

// This file keeps the graph builders as they were before the built-in
// kinds became spec generators: each writes Graph nodes and edges
// directly. TestGenerateMatchesRef and FuzzGenerate check that
// BuildScenario(Generate(...)) reproduces them exactly. Apart from the
// renamed builder type and entry point, the code is unchanged; a change
// to what a generator builds must change this copy too.

import (
	"fmt"
	"sort"

	"memnet/internal/config"
	"memnet/internal/packet"
)

// refBuilder accumulates nodes and edges during construction.
type refBuilder struct {
	kind  Kind
	nodes []Node
	edges []Edge
	deg   []int
}

func newRefBuilder(kind Kind) *refBuilder {
	b := &refBuilder{kind: kind}
	b.nodes = append(b.nodes, Node{ID: packet.HostNode, Kind: Host, Pos: -1})
	b.deg = append(b.deg, 0)
	return b
}

func (b *refBuilder) addNode(kind NodeKind, tech config.MemTech, pos int) packet.NodeID {
	id := packet.NodeID(len(b.nodes))
	b.nodes = append(b.nodes, Node{ID: id, Kind: kind, Tech: tech, Pos: pos})
	b.deg = append(b.deg, 0)
	return id
}

func (b *refBuilder) link(a, c packet.NodeID, express, interposer bool) {
	b.edges = append(b.edges, Edge{A: a, B: c, Express: express, Interposer: interposer})
	b.deg[a]++
	b.deg[c]++
}

// spare reports whether node n, a cube, can take another external link.
func (b *refBuilder) spare(n packet.NodeID) bool {
	return b.deg[n] < MaxCubePorts
}

// refBuild constructs the topology of the given kind over the given
// ordered cube technologies (index 0 is the position nearest the host;
// NVM-F/L placement is expressed by the caller through this ordering).
func refBuild(kind Kind, techs []config.MemTech, metaGroup int) (*Graph, error) {
	if len(techs) == 0 {
		return nil, fmt.Errorf("topology: no cubes")
	}
	if metaGroup <= 0 {
		return nil, fmt.Errorf("topology: non-positive MetaCube group %d", metaGroup)
	}
	b := newRefBuilder(kind)
	switch kind {
	case Chain:
		b.buildChain(techs)
	case Ring:
		b.buildRing(techs)
	case Tree:
		b.buildTree(techs)
	case SkipList:
		b.buildSkipList(techs)
	case MetaCube:
		b.buildMetaCube(techs, metaGroup)
	case Mesh:
		b.buildMesh(techs)
	default:
		return nil, fmt.Errorf("topology: unknown kind %v", kind)
	}
	return b.finish()
}

// buildChain: host - c0 - c1 - ... - cn-1.
func (b *refBuilder) buildChain(techs []config.MemTech) {
	prev := packet.HostNode
	for i, t := range techs {
		c := b.addNode(Cube, t, i)
		b.link(prev, c, false, false)
		prev = c
	}
}

// buildRing: the cubes form a cycle; the host attaches to one cube,
// which therefore uses three of its four ports. Because traffic takes
// the shorter branch, positions in the host-proximity ordering zigzag
// around the cycle (position 0 at the host slot, positions 1 and 2 at
// its two ring neighbors, and so on), so that "NVM last" really places
// NVM at the far side of the ring. A single cube degenerates to a chain
// of one.
func (b *refBuilder) buildRing(techs []config.MemTech) {
	n := len(techs)
	// slotTech[s] is the technology at ring slot s (slot 0 touches the
	// host; walking distance grows as min(s, n-s)).
	slotTech := make([]config.MemTech, n)
	slotPos := make([]int, n)
	lo, hi := 0, n-1
	for pos, t := range techs {
		var s int
		if pos%2 == 0 {
			s = lo
			lo++
		} else {
			s = hi
			hi--
		}
		slotTech[s] = t
		slotPos[s] = pos
	}
	ids := make([]packet.NodeID, n)
	for s := 0; s < n; s++ {
		ids[s] = b.addNode(Cube, slotTech[s], slotPos[s])
	}
	b.link(packet.HostNode, ids[0], false, false)
	for s := 0; s+1 < n; s++ {
		b.link(ids[s], ids[s+1], false, false)
	}
	if n > 2 {
		b.link(ids[n-1], ids[0], false, false)
	}
}

// buildTree: a ternary tree in breadth-first position order, so that
// earlier positions (where NVM-F places NVM) are nearer the host. Each
// cube spends one port on its parent and up to three on children.
func (b *refBuilder) buildTree(techs []config.MemTech) {
	ids := make([]packet.NodeID, len(techs))
	for i, t := range techs {
		ids[i] = b.addNode(Cube, t, i)
	}
	b.link(packet.HostNode, ids[0], false, false)
	// BFS fill: node i's children are 3i+1, 3i+2, 3i+3.
	for i := range ids {
		for c := 3*i + 1; c <= 3*i+3 && c < len(ids); c++ {
			b.link(ids[i], ids[c], false, false)
		}
	}
}

// buildSkipList: a central sequential chain plus recursively halving
// express links, constrained by the 4-port budget. The construction
// reproduces Fig. 8 for 16 cubes: skips 1->9 (stride 8), 9->13, 1->5
// (stride 4), 13->15, 5->7 (stride 2); the farthest cube is then 5 hops
// from the host (strides 8, 4, 2, 1 after the host link).
func (b *refBuilder) buildSkipList(techs []config.MemTech) {
	n := len(techs)
	ids := make([]packet.NodeID, n)
	for i, t := range techs {
		ids[i] = b.addNode(Cube, t, i)
	}
	b.link(packet.HostNode, ids[0], false, false)
	for i := 0; i+1 < n; i++ {
		b.link(ids[i], ids[i+1], false, false)
	}
	// Largest power-of-two stride no greater than half the list.
	maxStride := 1
	for maxStride*2 <= n/2 {
		maxStride *= 2
	}
	var addSkips func(from, stride int)
	addSkips = func(from, stride int) {
		for s := stride; s >= 2; s /= 2 {
			to := from + s
			if to >= n {
				continue
			}
			if !b.spare(ids[from]) || !b.spare(ids[to]) {
				continue
			}
			b.link(ids[from], ids[to], true, false)
			addSkips(to, s)
		}
	}
	if n >= 3 {
		addSkips(0, maxStride)
	}
}

// buildMetaCube: cubes are grouped four-per-package behind an interface
// chip (a memoryless router) connected by interposer traces; the
// interface chips form a ternary tree toward the host. Groups are filled
// in position order so NVM placement carries through.
func (b *refBuilder) buildMetaCube(techs []config.MemTech, group int) {
	nGroups := (len(techs) + group - 1) / group
	ifaces := make([]packet.NodeID, nGroups)
	for gi := 0; gi < nGroups; gi++ {
		ifaces[gi] = b.addNode(Iface, config.DRAM, -1)
	}
	b.link(packet.HostNode, ifaces[0], false, false)
	for gi := range ifaces {
		for c := 3*gi + 1; c <= 3*gi+3 && c < len(ifaces); c++ {
			b.link(ifaces[gi], ifaces[c], false, false)
		}
	}
	for i, t := range techs {
		cube := b.addNode(Cube, t, i)
		b.link(ifaces[i/group], cube, false, true)
	}
}

// buildMesh: a near-square 2D mesh with the host attached at the (0,0)
// corner (which therefore has two mesh links plus the host link).
// Positions in the host-proximity ordering are assigned by increasing
// Manhattan distance from the corner, so NVM placement behaves as in the
// other topologies. The trailing cells of a non-rectangular count are
// simply absent (a ragged last row).
func (b *refBuilder) buildMesh(techs []config.MemTech) {
	n := len(techs)
	// Choose the widest W <= sqrt(n) that keeps the grid near-square.
	w := 1
	for (w+1)*(w+1) <= n {
		w++
	}
	h := (n + w - 1) / w

	// Enumerate grid cells (x,y), y-major rows, ragged tail allowed.
	type cell struct{ x, y int }
	cells := make([]cell, 0, n)
	for y := 0; y < h; y++ {
		for x := 0; x < w && len(cells) < n; x++ {
			cells = append(cells, cell{x, y})
		}
	}
	// Assign positions by Manhattan distance from the host corner,
	// breaking ties row-major (stable order for determinism).
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool {
		a, c := cells[order[i]], cells[order[j]]
		return a.x+a.y < c.x+c.y
	})
	ids := make([]packet.NodeID, n)
	for pos, ci := range order {
		ids[ci] = b.addNode(Cube, techs[pos], pos)
	}
	idAt := func(x, y int) (packet.NodeID, bool) {
		if x < 0 || y < 0 || x >= w || y >= h {
			return 0, false
		}
		i := y*w + x
		if i >= n {
			return 0, false
		}
		return ids[i], true
	}
	b.link(packet.HostNode, ids[0], false, false)
	for i, c := range cells {
		if right, ok := idAt(c.x+1, c.y); ok {
			b.link(ids[i], right, false, false)
		}
		if down, ok := idAt(c.x, c.y+1); ok {
			b.link(ids[i], down, false, false)
		}
	}
}

// finish validates port budgets, builds adjacency, and computes the
// per-class routing tables.
func (b *refBuilder) finish() (*Graph, error) {
	g := &Graph{Kind: b.kind, Nodes: b.nodes, Edges: b.edges}
	if err := g.rebuild(); err != nil {
		return nil, err
	}
	for _, n := range g.Nodes {
		d := len(g.adj[n.ID])
		switch n.Kind {
		case Cube:
			if d > MaxCubePorts {
				return nil, fmt.Errorf(
					"topology: cube %d exceeds %d ports (%d)", n.ID, MaxCubePorts, d)
			}
		case Host:
			if d != 1 {
				return nil, fmt.Errorf("topology: host must have exactly 1 link, has %d", d)
			}
		}
	}
	return g, nil
}
