// Package topology generates the memory-network topologies the paper
// studies — chain, ring, ternary tree (Fig. 3), the skip-list topology
// (Fig. 8), and the MetaCube cluster topology (Fig. 9) — as declarative
// scenario specs (Generate), builds a graph from any spec
// (BuildScenario), and computes its shortest-path routing tables.
//
// Routing is class-based: the skip-list differentiates traffic, sending
// reads over the full graph (so they exploit the express "skip" links)
// while write requests are shunted down the central sequential chain
// (§4.2). Each class has its own next-hop and distance tables; for
// topologies without express links the two classes coincide.
//
// Memory cube packages are limited to 4 external links (HMC-like);
// builders enforce this. MetaCube interface chips may exceed it — that
// is precisely the high-radix-router-on-interposer advantage of §4.3.
package topology

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"memnet/internal/config"
	"memnet/internal/packet"
	"memnet/internal/scenario"
)

// Kind selects a topology family.
type Kind uint8

const (
	// Chain is a linear daisy-chain of cubes (Fig. 3b).
	Chain Kind = iota
	// Ring closes the chain into a cycle so traffic takes the shorter
	// branch (Fig. 3c).
	Ring
	// Tree is the ternary tree that best exploits the 4 links per cube
	// (Fig. 3d).
	Tree
	// SkipList is the chain plus express skip links of §4.2 (Fig. 8).
	SkipList
	// MetaCube clusters four cubes behind an interface chip on an
	// interposer; interface chips form a ternary tree (§4.3, Fig. 9).
	MetaCube
	// Mesh is a 2D mesh, provided as an extension baseline. The paper
	// excludes it from its evaluation because its average hop count is
	// worse than a tree no matter which cube attaches to the host (§3);
	// building it lets that claim be checked directly.
	Mesh
	// Scenario marks a graph loaded from a declarative scenario file
	// (BuildScenario) whose shape names no built-in family. It is not a
	// generated kind: Generate rejects it and it appears in neither
	// Kinds nor AllKinds. A scenario that declares a "topology" label gets
	// that built-in kind instead, so its runs label identically to the
	// compiled-in topology.
	Scenario
)

// Kinds lists the paper's evaluated topologies in presentation order
// (the experiment harness sweeps exactly these).
var Kinds = []Kind{Chain, Ring, Tree, SkipList, MetaCube}

// AllKinds additionally includes the extension topologies.
var AllKinds = []Kind{Chain, Ring, Tree, SkipList, MetaCube, Mesh}

// String implements fmt.Stringer using the paper's names.
func (k Kind) String() string {
	switch k {
	case Chain:
		return "Chain"
	case Ring:
		return "Ring"
	case Tree:
		return "Tree"
	case SkipList:
		return "SkipList"
	case MetaCube:
		return "MetaCube"
	case Mesh:
		return "Mesh"
	case Scenario:
		return "Scenario"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Letter returns the paper's single-letter (or short) suffix for
// configuration labels, e.g. "C" in "50%-C (NVM-L)".
func (k Kind) Letter() string {
	switch k {
	case Chain:
		return "C"
	case Ring:
		return "R"
	case Tree:
		return "T"
	case SkipList:
		return "SL"
	case MetaCube:
		return "MC"
	case Mesh:
		return "M"
	case Scenario:
		return "SC"
	default:
		return "?"
	}
}

// NodeKind classifies graph nodes.
type NodeKind uint8

const (
	// Host is the processor memory port (always node 0).
	Host NodeKind = iota
	// Cube is a memory cube holding DRAM or NVM.
	Cube
	// Iface is a MetaCube interface chip: a router with no memory.
	Iface
)

// PathClass selects a routing table.
type PathClass uint8

const (
	// PathShort routes over every link (shortest paths; reads).
	PathShort PathClass = iota
	// PathLong routes over non-express links only (the central chain;
	// write requests in a skip list).
	PathLong
	// NumClasses is the routing-table count.
	NumClasses
)

// ClassOf returns the routing class for a packet kind given whether
// write-shortcutting (the §5.3 hysteresis mechanism) is currently
// engaged.
func ClassOf(k packet.Kind, writeShortcut bool) PathClass {
	if k == packet.WriteReq && !writeShortcut {
		return PathLong
	}
	return PathShort
}

// Node is one vertex of the network graph.
type Node struct {
	ID   packet.NodeID
	Kind NodeKind
	Tech config.MemTech // meaningful only for Kind==Cube
	// Pos is the cube's position in the host-proximity ordering used for
	// NVM placement (0 = nearest). -1 for non-cubes.
	Pos int
}

// Edge is an undirected physical link.
type Edge struct {
	A, B packet.NodeID
	// Express marks a skip link: excluded from the PathLong graph.
	Express bool
	// Interposer marks a MetaCube-internal interposer trace (wider,
	// lower latency than a package-to-package SerDes link).
	Interposer bool
}

// half is one directed half of an edge as seen from a node.
type half struct {
	to   packet.NodeID
	edge int // index into Graph.Edges
}

// MaxCubePorts is the external-link budget of a memory cube package.
const MaxCubePorts = 4

// Graph is an immutable built topology with routing tables.
type Graph struct {
	Kind  Kind
	Nodes []Node
	Edges []Edge

	adj [][]half
	// next[class][node][dst] = port index into adj[node], or -1.
	next [NumClasses][][]int8
	// dist[class][node][dst] = hop count, or -1 if unreachable.
	dist [NumClasses][][]int16

	// deadEdge/deadNode are the fault masks of a degraded graph built by
	// Disable (nil on a healthy graph). They leave Nodes, Edges, and
	// adjacency — and therefore every port index — untouched, so a live,
	// already-wired network can swap its routing tables without
	// rewiring.
	deadEdge []bool
	deadNode []bool
}

// NumNodes reports the node count including the host.
func (g *Graph) NumNodes() int { return len(g.Nodes) }

// CubeIDs returns the IDs of all memory-holding cubes in position order.
func (g *Graph) CubeIDs() []packet.NodeID {
	ids := make([]packet.NodeID, 0, len(g.Nodes))
	for _, n := range g.Nodes {
		if n.Kind == Cube {
			ids = append(ids, n.ID)
		}
	}
	return ids
}

// Degree reports the number of links at node n.
func (g *Graph) Degree(n packet.NodeID) int { return len(g.adj[n]) }

// Neighbor reports the node reached through the given port of n.
func (g *Graph) Neighbor(n packet.NodeID, port int) packet.NodeID {
	return g.adj[n][port].to
}

// EdgeAt returns the edge behind the given port of n.
func (g *Graph) EdgeAt(n packet.NodeID, port int) Edge {
	return g.Edges[g.adj[n][port].edge]
}

// EdgeIndex returns the index into Edges of the link behind the given
// port of n.
func (g *Graph) EdgeIndex(n packet.NodeID, port int) int {
	return g.adj[n][port].edge
}

// NextPort returns the output port at node n toward dst for the given
// class, or -1 when n == dst or dst is unreachable in that class.
func (g *Graph) NextPort(class PathClass, n, dst packet.NodeID) int {
	return int(g.next[class][n][dst])
}

// DeadEdge reports whether edge ei has been failed by Disable.
func (g *Graph) DeadEdge(ei int) bool { return g.deadEdge != nil && g.deadEdge[ei] }

// DeadNode reports whether node n has been fully failed by Disable.
func (g *Graph) DeadNode(n packet.NodeID) bool { return g.deadNode != nil && g.deadNode[n] }

// EdgeBetween returns the index of the edge connecting a and b, or -1.
func (g *Graph) EdgeBetween(a, b packet.NodeID) int {
	for ei, e := range g.Edges {
		if (e.A == a && e.B == b) || (e.A == b && e.B == a) {
			return ei
		}
	}
	return -1
}

// Dist returns the hop distance between a and b in the given class, or
// -1 if disconnected.
func (g *Graph) Dist(class PathClass, a, b packet.NodeID) int {
	return int(g.dist[class][a][b])
}

// builder accumulates the nodes and links of a generated spec. Node
// IDs count from 1 in addNode order (the host is node 0), the IDs
// BuildScenario assigns from list order; link order becomes the built
// graph's port numbering and edge indices.
type builder struct {
	nodes []scenario.Node
	links []scenario.Link
	deg   []int // external links per node ID, host included
	pos   []int // backs every cube's Node.Pos, indexed by position
	// names holds every node name back to back; each Node.Name is a
	// slice of it, so naming the nodes allocates once.
	names strings.Builder
}

func (b *builder) addNode(kind NodeKind, tech config.MemTech, pos int) packet.NodeID {
	id := packet.NodeID(len(b.nodes) + 1)
	var n scenario.Node
	if kind == Iface {
		n = scenario.Node{Name: b.newName("if", id), Kind: "iface"}
	} else {
		b.pos[pos] = pos
		n = scenario.Node{Name: b.newName("c", id), Kind: "cube", Tech: "dram", Pos: &b.pos[pos]}
		if tech == config.NVM {
			n.Tech = "nvm"
		}
	}
	b.nodes = append(b.nodes, n)
	b.deg = append(b.deg, 0)
	return id
}

// newName appends prefix and id's digits to the name buffer and
// returns them as a string. Strings the buffer returned earlier stay
// valid: it only ever appends.
func (b *builder) newName(prefix string, id packet.NodeID) string {
	start := b.names.Len()
	b.names.WriteString(prefix)
	var digits [20]byte
	b.names.Write(strconv.AppendInt(digits[:0], int64(id), 10))
	return b.names.String()[start:]
}

// name returns the spec name of node id.
func (b *builder) name(id packet.NodeID) string {
	if id == packet.HostNode {
		return scenario.HostName
	}
	return b.nodes[id-1].Name
}

func (b *builder) link(a, c packet.NodeID, express, interposer bool) {
	b.links = append(b.links, scenario.Link{
		A: b.name(a), B: b.name(c), Express: express, Interposer: interposer,
	})
	b.deg[a]++
	b.deg[c]++
}

// spare reports whether node n, a cube, can take another external link.
func (b *builder) spare(n packet.NodeID) bool {
	return b.deg[n] < MaxCubePorts
}

// Generate emits the scenario spec of the built-in topology of the
// given kind over the given ordered cube technologies (index 0 is the
// position nearest the host; NVM-F/L placement is expressed by the
// caller through this ordering). MetaCube packages hold metaGroup cubes
// each; the paper notes the interposer size bounds this (§4.3), and
// larger groups trade packaging cost for even fewer external hops.
//
// The spec carries structure only: cubes are named "c<ID>" and
// interface chips "if<ID>", every cube's position is set, Topology is
// the kind's label and Name is "<kind>-<nodes>". No per-link or
// per-router override is emitted, so a run of the spec inherits the
// system-wide defaults. BuildScenario turns it into a graph.
func Generate(kind Kind, techs []config.MemTech, metaGroup int) (*scenario.Spec, error) {
	if len(techs) == 0 {
		return nil, fmt.Errorf("topology: no cubes")
	}
	if metaGroup <= 0 {
		return nil, fmt.Errorf("topology: non-positive MetaCube group %d", metaGroup)
	}
	nodes := len(techs)
	if kind == MetaCube {
		nodes += (len(techs) + metaGroup - 1) / metaGroup
	}
	// Chains, rings, trees and MetaCubes have at most one link per node
	// plus one. A cube takes at most MaxCubePorts links, so skip lists
	// and meshes have at most two per node.
	links := nodes + 1
	if kind == SkipList || kind == Mesh {
		links = 2 * nodes
	}
	b := &builder{
		nodes: make([]scenario.Node, 0, nodes),
		links: make([]scenario.Link, 0, links),
		deg:   make([]int, 1, nodes+1),
		pos:   make([]int, len(techs)),
	}
	// A name is at most "if" and the digits of the highest ID.
	b.names.Grow(nodes * (2 + len(strconv.Itoa(nodes))))
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
	label := KindName(kind)
	return &scenario.Spec{
		Schema:   scenario.Schema,
		Name:     label + "-" + strconv.Itoa(len(b.nodes)),
		Topology: label,
		Nodes:    b.nodes,
		Links:    b.links,
	}, nil
}

// Build constructs the built-in topology of the given kind over the
// given ordered cube technologies, with MetaCube packages of four.
func Build(kind Kind, techs []config.MemTech) (*Graph, error) {
	s, err := Generate(kind, techs, 4)
	if err != nil {
		return nil, err
	}
	return BuildScenario(s)
}

// buildChain: host - c0 - c1 - ... - cn-1.
func (b *builder) buildChain(techs []config.MemTech) {
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
func (b *builder) buildRing(techs []config.MemTech) {
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
func (b *builder) buildTree(techs []config.MemTech) {
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
func (b *builder) buildSkipList(techs []config.MemTech) {
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
func (b *builder) buildMetaCube(techs []config.MemTech, group int) {
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
func (b *builder) buildMesh(techs []config.MemTech) {
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

// rebuild recomputes adjacency and routing tables from Nodes/Edges.
func (g *Graph) rebuild() error {
	// Every node's adjacency is a slice of one backing array, cut to
	// the node's degree.
	deg := make([]int, len(g.Nodes))
	for _, e := range g.Edges {
		deg[e.A]++
		deg[e.B]++
	}
	all := make([]half, 0, 2*len(g.Edges))
	g.adj = make([][]half, len(g.Nodes))
	for n, d := range deg {
		g.adj[n], all = all[:0:d], all[d:d]
	}
	for ei, e := range g.Edges {
		g.adj[e.A] = append(g.adj[e.A], half{to: e.B, edge: ei})
		g.adj[e.B] = append(g.adj[e.B], half{to: e.A, edge: ei})
	}
	for class := PathClass(0); class < NumClasses; class++ {
		next, dist, err := g.routes(class)
		if err != nil {
			return err
		}
		g.next[class] = next
		g.dist[class] = dist
	}
	// Degraded-mode fallback: if a pair is unreachable on the restricted
	// write-path graph (e.g. the central chain of a skip list lost a
	// link), writes fall back to the shortest-path table rather than
	// stranding (the RAS behavior footnote 3 of the paper gestures at).
	for n := range g.Nodes {
		for d := range g.Nodes {
			if g.next[PathLong][n][d] < 0 && n != d {
				g.next[PathLong][n][d] = g.next[PathShort][n][d]
				g.dist[PathLong][n][d] = g.dist[PathShort][n][d]
			}
		}
	}
	return nil
}

// Disable returns a copy of the graph with the given edges and nodes
// marked dead and every routing table recomputed around them, layered on
// top of any faults the receiver already carries. Nodes, Edges, and
// adjacency are shared untouched, so port indices stay valid for a
// network that is already wired — this is the route-around primitive for
// runtime faults. A link that is absent for the whole run is instead a
// scenario without that link (see BuildScenario).
//
// A dead node is a "zombie" in the tables: it keeps next-hops of its own
// (packets queued there when it died can escape) and remains a reachable
// destination (in-flight packets are bounced at its router), but no
// route transits it. Disable errors if any live node becomes unreachable
// from the host — chains and trees have no redundancy to route around;
// rings, skip lists, and meshes do.
func (g *Graph) Disable(deadEdges []int, deadNodes []packet.NodeID) (*Graph, error) {
	ng := &Graph{Kind: g.Kind, Nodes: g.Nodes, Edges: g.Edges}
	ng.deadEdge = make([]bool, len(g.Edges))
	ng.deadNode = make([]bool, len(g.Nodes))
	copy(ng.deadEdge, g.deadEdge)
	copy(ng.deadNode, g.deadNode)
	for _, ei := range deadEdges {
		if ei < 0 || ei >= len(g.Edges) {
			return nil, fmt.Errorf("topology: no edge %d", ei)
		}
		ng.deadEdge[ei] = true
	}
	for _, n := range deadNodes {
		if int(n) <= int(packet.HostNode) || int(n) >= len(g.Nodes) {
			return nil, fmt.Errorf("topology: cannot fail node %d", n)
		}
		ng.deadNode[n] = true
	}
	if err := ng.rebuild(); err != nil {
		return nil, fmt.Errorf("topology: fault disconnects the network: %w", err)
	}
	return ng, nil
}

// Enable is Disable's mirror: it returns a copy of the graph with the
// given edges and nodes returned to service and every routing table
// recomputed — the route-back primitive for runtime repairs. Nodes,
// Edges, and adjacency are shared untouched, so port indices stay
// valid across the swap. Enabling a target that is not currently dead
// is an error (it would mask a schedule bug). When the last fault is
// healed the dead masks are dropped entirely, so a fully repaired
// graph computes route tables identical to the pristine build —
// traffic returns to the exact pre-fault paths.
func (g *Graph) Enable(edges []int, nodes []packet.NodeID) (*Graph, error) {
	ng := &Graph{Kind: g.Kind, Nodes: g.Nodes, Edges: g.Edges}
	ng.deadEdge = make([]bool, len(g.Edges))
	ng.deadNode = make([]bool, len(g.Nodes))
	copy(ng.deadEdge, g.deadEdge)
	copy(ng.deadNode, g.deadNode)
	for _, ei := range edges {
		if ei < 0 || ei >= len(g.Edges) {
			return nil, fmt.Errorf("topology: no edge %d", ei)
		}
		if !ng.deadEdge[ei] {
			return nil, fmt.Errorf("topology: cannot repair edge %d: not dead", ei)
		}
		ng.deadEdge[ei] = false
	}
	for _, n := range nodes {
		if int(n) <= int(packet.HostNode) || int(n) >= len(g.Nodes) {
			return nil, fmt.Errorf("topology: cannot repair node %d", n)
		}
		if !ng.deadNode[n] {
			return nil, fmt.Errorf("topology: cannot repair node %d: not dead", n)
		}
		ng.deadNode[n] = false
	}
	anyDead := false
	for _, d := range ng.deadEdge {
		anyDead = anyDead || d
	}
	for _, d := range ng.deadNode {
		anyDead = anyDead || d
	}
	if !anyDead {
		ng.deadEdge, ng.deadNode = nil, nil
	}
	if err := ng.rebuild(); err != nil {
		return nil, fmt.Errorf("topology: repair left the network inconsistent: %w", err)
	}
	return ng, nil
}

// routes computes next-hop and distance tables for one class with BFS
// from every destination. Express edges are excluded from PathLong. Ties
// break toward the lowest port index, which is deterministic.
func (g *Graph) routes(class PathClass) ([][]int8, [][]int16, error) {
	n := len(g.Nodes)
	// Every row of a table is a slice of one n*n backing array.
	next := make([][]int8, n)
	dist := make([][]int16, n)
	nextAll := make([]int8, n*n)
	distAll := make([]int16, n*n)
	for i := range nextAll {
		nextAll[i] = -1
		distAll[i] = -1
	}
	for i := range next {
		next[i] = nextAll[i*n : (i+1)*n : (i+1)*n]
		dist[i] = distAll[i*n : (i+1)*n : (i+1)*n]
	}
	usable := func(ei int) bool {
		if g.deadEdge != nil && g.deadEdge[ei] {
			return false
		}
		return class == PathShort || !g.Edges[ei].Express
	}
	// Each node enters a BFS's queue at most once, so the queue never
	// outgrows n; walking it by index keeps its capacity for the next
	// BFS.
	queue := make([]packet.NodeID, 0, n)
	for dst := 0; dst < n; dst++ {
		d := packet.NodeID(dst)
		dist[dst][dst] = 0
		queue = append(queue[:0], d)
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			for _, h := range g.adj[u] {
				if !usable(h.edge) {
					continue
				}
				v := h.to
				if dist[v][dst] != -1 {
					continue
				}
				dist[v][dst] = dist[u][dst] + 1
				// From v, the port leading back to u is the next hop
				// toward dst.
				for vp, vh := range g.adj[v] {
					if vh.to == u && usable(vh.edge) {
						next[v][dst] = int8(vp)
						break
					}
				}
				// A dead node gets next-hops of its own (the zombie escape
				// rule) but is never expanded, so no path transits it.
				if g.deadNode == nil || !g.deadNode[v] {
					queue = append(queue, v)
				}
			}
		}
	}
	// The full graph (PathShort) must connect every live node; the
	// restricted write-path graph may have holes, which rebuild patches
	// with shortest-path fallbacks.
	if class == PathShort {
		for _, a := range g.Nodes {
			if g.deadNode != nil && g.deadNode[a.ID] {
				continue
			}
			if dist[packet.HostNode][a.ID] < 0 {
				return nil, nil, fmt.Errorf("topology: node %d unreachable from host",
					a.ID)
			}
		}
	}
	return next, dist, nil
}

// MaxHostDist returns the largest host-to-cube hop count in PathShort —
// the network diameter figure the paper quotes (e.g. 5 for the 16-cube
// skip list).
func (g *Graph) MaxHostDist() int {
	max := 0
	for _, id := range g.CubeIDs() {
		if d := g.Dist(PathShort, packet.HostNode, id); d > max {
			max = d
		}
	}
	return max
}

// MeanHostDist returns the average host-to-cube shortest-path hop count.
func (g *Graph) MeanHostDist() float64 {
	ids := g.CubeIDs()
	if len(ids) == 0 {
		return 0
	}
	sum := 0
	for _, id := range ids {
		sum += g.Dist(PathShort, packet.HostNode, id)
	}
	return float64(sum) / float64(len(ids))
}
