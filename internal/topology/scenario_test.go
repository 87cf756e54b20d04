package topology

import (
	"reflect"
	"strings"
	"testing"

	"memnet/internal/config"
	"memnet/internal/packet"
	"memnet/internal/scenario"
)

// twoPodSpec declares an irregular graph no built-in kind expresses:
// two 4-cube rings bridged through a middle cube, host on pod A.
func twoPodSpec() *scenario.Spec {
	node := func(name string) scenario.Node { return scenario.Node{Name: name} }
	link := func(a, b string) scenario.Link { return scenario.Link{A: a, B: b} }
	return &scenario.Spec{
		Schema: scenario.Schema,
		Name:   "two-pod",
		Nodes: []scenario.Node{
			node("a0"), node("a1"), node("a2"), node("a3"),
			node("x"),
			node("b0"), node("b1"), node("b2"), node("b3"),
		},
		Links: []scenario.Link{
			link("host", "a0"),
			link("a0", "a1"), link("a1", "a2"), link("a2", "a3"), link("a3", "a0"),
			link("a0", "x"), link("x", "b0"),
			link("b0", "b1"), link("b1", "b2"), link("b2", "b3"), link("b3", "b0"),
		},
	}
}

func TestKindNamesRoundTrip(t *testing.T) {
	names := KindNames()
	if len(names) != len(AllKinds) {
		t.Fatalf("KindNames has %d entries for %d kinds", len(names), len(AllKinds))
	}
	for i, k := range AllKinds {
		if k == Scenario {
			t.Fatalf("AllKinds contains Scenario")
		}
		if names[i] != KindName(k) {
			t.Errorf("KindNames[%d] = %q, want %q", i, names[i], KindName(k))
		}
		for _, label := range []string{KindName(k), strings.ToUpper(KindName(k)), k.String()} {
			got, err := ParseKind(label)
			if err != nil || got != k {
				t.Errorf("ParseKind(%q) = %v, %v; want %v", label, got, err, k)
			}
		}
		if k.Letter() == "?" || strings.HasPrefix(k.String(), "Kind(") {
			t.Errorf("%v has no name/letter", k)
		}
	}
	for _, bad := range []string{"", "torus", "scenario"} {
		if _, err := ParseKind(bad); err == nil {
			t.Errorf("ParseKind(%q) accepted", bad)
		}
	}
}

func TestBuildRejectsScenarioKind(t *testing.T) {
	if _, err := Build(Scenario, dram(4)); err == nil {
		t.Fatal("Build(Scenario, ...) must fail; scenarios build via BuildScenario")
	}
}

func TestBuildScenarioIrregular(t *testing.T) {
	g, err := BuildScenario(twoPodSpec())
	if err != nil {
		t.Fatal(err)
	}
	if g.Kind != Scenario {
		t.Errorf("kind = %v, want Scenario", g.Kind)
	}
	if got := len(g.Nodes); got != 10 {
		t.Fatalf("nodes = %d, want 10", got)
	}
	if got := len(g.Edges); got != 11 {
		t.Fatalf("edges = %d, want 11", got)
	}
	// Route tables must reach every cube from the host on both classes.
	for _, id := range g.CubeIDs() {
		for _, class := range []PathClass{PathShort, PathLong} {
			if g.Dist(class, packet.HostNode, id) < 0 {
				t.Errorf("no %v route host -> %d", class, id)
			}
		}
	}
	// Pod B is two hops behind the bridge: host-a0-x-b0.
	b0, _ := twoPodSpec().NodeID("b0")
	if d := g.Dist(PathShort, packet.HostNode, packet.NodeID(b0)); d != 3 {
		t.Errorf("host->b0 dist = %d, want 3", d)
	}
}

func TestBuildScenarioRejects(t *testing.T) {
	// Port budget: a 5-link cube must be rejected by the builder even
	// though the spec-level checks cannot know the per-cube budget rule
	// ahead of graph construction.
	s := twoPodSpec()
	s.Links = append(s.Links, scenario.Link{A: "a0", B: "b2"})
	if _, err := BuildScenario(s); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("over-budget cube not rejected: %v", err)
	}
	// Spec-level validation errors surface through BuildScenario too.
	s = twoPodSpec()
	s.Links[0].B = "zz"
	if _, err := BuildScenario(s); err == nil || !strings.Contains(err.Error(), "links[0].b") {
		t.Fatalf("unknown endpoint not rejected: %v", err)
	}
	s = twoPodSpec()
	s.Topology = "torus"
	if _, err := BuildScenario(s); err == nil || !strings.Contains(err.Error(), "torus") {
		t.Fatalf("unknown topology label not rejected: %v", err)
	}
}

// TestExportScenarioRoundTrip checks that the spec generated for any
// built-in topology survives the JSON file format: its canonical bytes
// decode to a spec that builds the same graph, with the same nodes,
// the same edges in the same order (port numbering), and the same kind.
func TestExportScenarioRoundTrip(t *testing.T) {
	for _, kind := range AllKinds {
		spec, err := Generate(kind, dram(16), 4)
		if err != nil {
			t.Fatal(err)
		}
		if spec.Topology != KindName(kind) {
			t.Errorf("%v: generated topology label %q", kind, spec.Topology)
		}
		g := build(t, kind, dram(16))
		reloaded, err := scenario.Decode(spec.Canonical())
		if err != nil {
			t.Fatalf("%v: generated spec does not decode: %v", kind, err)
		}
		g2, err := BuildScenario(reloaded)
		if err != nil {
			t.Fatalf("%v: rebuild: %v", kind, err)
		}
		if g2.Kind != kind {
			t.Errorf("%v: rebuilt kind %v", kind, g2.Kind)
		}
		if !reflect.DeepEqual(g.Nodes, g2.Nodes) {
			t.Errorf("%v: nodes differ\n%+v\n%+v", kind, g.Nodes, g2.Nodes)
		}
		if !reflect.DeepEqual(g.Edges, g2.Edges) {
			t.Errorf("%v: edges differ\n%+v\n%+v", kind, g.Edges, g2.Edges)
		}
	}
}

// TestExportScenarioValidates checks a generated spec carries the names
// and labels runs and exports rely on, and stays unchanged through
// normalization and a JSON round trip.
func TestExportScenarioValidates(t *testing.T) {
	spec, err := Generate(MetaCube, dram(16), 4)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Name != "metacube-20" || spec.Nodes[0].Name != "if1" || spec.Nodes[4].Name != "c5" {
		t.Errorf("generated names: spec %q, nodes %q, %q", spec.Name, spec.Nodes[0].Name, spec.Nodes[4].Name)
	}
	data := spec.Canonical()
	reloaded, err := scenario.Decode(data)
	if err != nil {
		t.Fatalf("generated spec does not decode: %v", err)
	}
	if !reflect.DeepEqual(reloaded, spec) {
		t.Errorf("generated spec changed through a JSON round trip:\n got %+v\nwant %+v", reloaded, spec)
	}
}

// TestBuildScenarioAllocs: building a graph allocates a fixed number of
// flat tables, not a slice per node or per breadth-first search, so a
// 32-cube graph of any kind costs no more allocations than a 16-cube
// one.
func TestBuildScenarioAllocs(t *testing.T) {
	allocs := func(k Kind, cubes int) float64 {
		spec, err := Generate(k, make([]config.MemTech, cubes), 4)
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(10, func() {
			if _, err := BuildScenario(spec); err != nil {
				t.Fatal(err)
			}
		})
	}
	for _, k := range AllKinds {
		small, large := allocs(k, 16), allocs(k, 32)
		if large > small || large > 32 {
			t.Errorf("%v: %v allocations at 16 cubes, %v at 32; want at most 32, not growing", k, small, large)
		}
	}
}

// TestGenerateAllocs: a generator names its nodes out of one buffer and
// sizes its slices up front, so a spec of 32 cubes takes as many
// allocations as one of 16.
func TestGenerateAllocs(t *testing.T) {
	allocs := func(k Kind, cubes int) float64 {
		techs := make([]config.MemTech, cubes)
		return testing.AllocsPerRun(10, func() {
			if _, err := Generate(k, techs, 4); err != nil {
				t.Fatal(err)
			}
		})
	}
	for _, k := range AllKinds {
		if small, large := allocs(k, 16), allocs(k, 32); large != small {
			t.Errorf("%v: %v allocations at 16 cubes, %v at 32", k, small, large)
		}
	}
}
