package main

import (
	"encoding/json"
	"strings"
	"testing"

	"memnet/internal/config"
	"memnet/internal/scenario"
	"memnet/internal/topology"
)

// TestTopologyUsageCurrent pins the -topology help text to the real
// kind registry, so adding a topology without updating the flag's
// usage string (and the generated docs) fails here instead of drifting.
func TestTopologyUsageCurrent(t *testing.T) {
	if want := strings.Join(topology.KindNames(), " | "); topoUsage != want {
		t.Errorf("-topology usage %q is stale; want %q", topoUsage, want)
	}
}

// TestEveryKindBuildsAndExports walks the full registry: each name in
// the usage string must parse, build, export as a scenario document,
// and rebuild into an identical structure.
func TestEveryKindBuildsAndExports(t *testing.T) {
	for _, name := range topology.KindNames() {
		kind, err := topology.ParseKind(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		g, err := topology.Build(kind, make([]config.MemTech, 16))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		spec, err := topology.Generate(kind, make([]config.MemTech, 16), 4)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out, err := json.MarshalIndent(spec, "", "  ")
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		s, err := scenario.Decode(out)
		if err != nil {
			t.Fatalf("%s export does not decode: %v", name, err)
		}
		if s.Topology != name {
			t.Errorf("%s export topology label = %q", name, s.Topology)
		}
		g2, err := topology.BuildScenario(s)
		if err != nil {
			t.Fatalf("%s export does not rebuild: %v", name, err)
		}
		if len(g2.Edges) != len(g.Edges) || g2.NumNodes() != g.NumNodes() || g2.Kind != g.Kind {
			t.Errorf("%s export rebuild mismatch: %d/%d edges, %d/%d nodes",
				name, len(g2.Edges), len(g.Edges), g2.NumNodes(), g.NumNodes())
		}
		if !strings.Contains(topoUsage, name) {
			t.Errorf("usage string omits %q", name)
		}
	}
}

// TestParseRejects keeps unknown and non-buildable labels out.
func TestParseRejects(t *testing.T) {
	for _, bad := range []string{"", "torus", "scenario"} {
		if _, err := topology.ParseKind(bad); err == nil {
			t.Errorf("ParseKind(%q) accepted", bad)
		}
	}
}
