package topology

import (
	"fmt"
	"strings"

	"memnet/internal/config"
	"memnet/internal/packet"
	"memnet/internal/scenario"
)

// This file turns declarative scenario specs into graphs: BuildScenario
// is the one constructor of a *Graph, for the generated built-in kinds
// and for irregular shapes no built-in kind expresses alike.

// kindName returns the canonical lowercase scenario/CLI label for a
// buildable kind ("chain", "skiplist", ...).
func kindName(k Kind) string { return strings.ToLower(k.String()) }

// KindNames returns the canonical labels of every buildable kind, in
// AllKinds order. CLI -topology usage strings and the scenario
// "topology" field accept exactly these.
func KindNames() []string {
	names := make([]string, len(AllKinds))
	for i, k := range AllKinds {
		names[i] = kindName(k)
	}
	return names
}

// ParseKind resolves a topology label (any case) to its Kind.
func ParseKind(label string) (Kind, error) {
	want := strings.ToLower(label)
	for _, k := range AllKinds {
		if want == kindName(k) {
			return k, nil
		}
	}
	return 0, fmt.Errorf("topology: unknown topology %q (%s)",
		label, strings.Join(KindNames(), " | "))
}

// BuildScenario constructs the declared component graph: it validates
// the port budgets, builds adjacency, and computes the per-class routing
// tables. The spec is normalized in place (defaults materialized)
// first; node declaration order fixes node IDs and link order fixes
// port numbering and edge indices.
func BuildScenario(s *scenario.Spec) (*Graph, error) {
	if err := s.Normalize(); err != nil {
		return nil, err
	}
	// A run reports the declared built-in kind, or Scenario.
	kind := Scenario
	if s.Topology != "" {
		k, err := ParseKind(s.Topology)
		if err != nil {
			return nil, fmt.Errorf("scenario: topology: %w", err)
		}
		kind = k
	}
	g := &Graph{
		Kind:  kind,
		Nodes: make([]Node, 1, len(s.Nodes)+1),
		Edges: make([]Edge, len(s.Links)),
	}
	g.Nodes[0] = Node{ID: packet.HostNode, Kind: Host, Pos: -1}
	for i, n := range s.Nodes {
		node := Node{ID: packet.NodeID(i + 1), Kind: Iface, Pos: -1}
		if n.Kind == "cube" {
			node.Kind, node.Pos = Cube, *n.Pos
			if n.Tech == "nvm" {
				node.Tech = config.NVM
			}
		}
		g.Nodes = append(g.Nodes, node)
	}
	for i, l := range s.Links {
		a, ok := s.NodeID(l.A)
		if !ok {
			return nil, fmt.Errorf("scenario: links[%d].a: unknown node %q", i, l.A)
		}
		c, ok := s.NodeID(l.B)
		if !ok {
			return nil, fmt.Errorf("scenario: links[%d].b: unknown node %q", i, l.B)
		}
		g.Edges[i] = Edge{A: packet.NodeID(a), B: packet.NodeID(c), Express: l.Express, Interposer: l.Interposer}
	}
	if err := g.rebuild(); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	for _, n := range g.Nodes {
		d := len(g.adj[n.ID])
		switch n.Kind {
		case Cube:
			if d > MaxCubePorts {
				return nil, fmt.Errorf(
					"scenario: topology: cube %d exceeds %d ports (%d)", n.ID, MaxCubePorts, d)
			}
		case Host:
			if d != 1 {
				return nil, fmt.Errorf("scenario: topology: host must have exactly 1 link, has %d", d)
			}
		}
	}
	return g, nil
}
