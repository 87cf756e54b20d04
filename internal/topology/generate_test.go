package topology

import (
	"reflect"
	"testing"

	"memnet/internal/config"
	"memnet/internal/packet"
)

// techPatterns are the cube technology orders the generator twin test
// covers: all DRAM, half NVM first, half NVM last, and alternating.
var techPatterns = []struct {
	name string
	nvm  func(i, n int) bool
}{
	{"dram", func(i, n int) bool { return false }},
	{"nvm-first", func(i, n int) bool { return i < n/2 }},
	{"nvm-last", func(i, n int) bool { return i >= n-n/2 }},
	{"alternating", func(i, n int) bool { return i%2 == 1 }},
}

func patternTechs(n int, nvm func(i, n int) bool) []config.MemTech {
	techs := make([]config.MemTech, n)
	for i := range techs {
		if nvm(i, n) {
			techs[i] = config.NVM
		}
	}
	return techs
}

// checkGenerateMatchesRef builds kind over techs through
// BuildScenario(Generate(...)) and through the reference builder, and
// reports any difference in kind, nodes, edges, or any class's next-hop
// and distance tables. Both must reject the same inputs.
func checkGenerateMatchesRef(t *testing.T, kind Kind, techs []config.MemTech, group int) {
	t.Helper()
	ref, refErr := refBuild(kind, techs, group)
	s, err := Generate(kind, techs, group)
	var g *Graph
	if err == nil {
		g, err = BuildScenario(s)
	}
	if (err != nil) != (refErr != nil) {
		t.Fatalf("%v/%d cubes/group %d: error %v, reference error %v", kind, len(techs), group, err, refErr)
	}
	if err != nil {
		return
	}
	if g.Kind != ref.Kind {
		t.Fatalf("%v/%d cubes/group %d: kind %v, reference %v", kind, len(techs), group, g.Kind, ref.Kind)
	}
	if !reflect.DeepEqual(g.Nodes, ref.Nodes) {
		t.Fatalf("%v/%d cubes/group %d: nodes differ\n got %+v\nwant %+v", kind, len(techs), group, g.Nodes, ref.Nodes)
	}
	if !reflect.DeepEqual(g.Edges, ref.Edges) {
		t.Fatalf("%v/%d cubes/group %d: edges differ\n got %+v\nwant %+v", kind, len(techs), group, g.Edges, ref.Edges)
	}
	for class := PathClass(0); class < NumClasses; class++ {
		for a := range g.Nodes {
			for b := range g.Nodes {
				src, dst := packet.NodeID(a), packet.NodeID(b)
				if got, want := g.NextPort(class, src, dst), ref.NextPort(class, src, dst); got != want {
					t.Fatalf("%v/%d cubes/group %d: class %d next %d->%d = %d, reference %d",
						kind, len(techs), group, class, a, b, got, want)
				}
				if got, want := g.Dist(class, src, dst), ref.Dist(class, src, dst); got != want {
					t.Fatalf("%v/%d cubes/group %d: class %d dist %d->%d = %d, reference %d",
						kind, len(techs), group, class, a, b, got, want)
				}
			}
		}
	}
}

// TestGenerateMatchesRef: every built-in kind, generated as a spec and
// built by BuildScenario, is the graph the direct builders made, for
// 1-40 cubes, four technology orders, and MetaCube groups 1-8.
func TestGenerateMatchesRef(t *testing.T) {
	for _, kind := range AllKinds {
		groups := []int{4}
		if kind == MetaCube {
			groups = []int{1, 2, 3, 4, 5, 6, 7, 8}
		}
		for n := 1; n <= 40; n++ {
			for _, pat := range techPatterns {
				for _, group := range groups {
					checkGenerateMatchesRef(t, kind, patternTechs(n, pat.nvm), group)
				}
			}
		}
	}
}

// FuzzGenerate runs the generator twin over arbitrary kinds (invalid
// ones included), cube counts, technology bitmasks and MetaCube groups.
func FuzzGenerate(f *testing.F) {
	f.Add(uint8(Tree), uint8(16), uint64(0), uint8(4))
	f.Add(uint8(SkipList), uint8(16), uint64(0xff), uint8(4))
	f.Add(uint8(MetaCube), uint8(23), uint64(0x5555), uint8(3))
	f.Add(uint8(Mesh), uint8(13), uint64(0xf000), uint8(4))
	f.Add(uint8(Ring), uint8(2), uint64(1), uint8(1))
	f.Add(uint8(Chain), uint8(0), uint64(0), uint8(4))
	f.Add(uint8(MetaCube), uint8(9), uint64(0), uint8(0))
	f.Add(uint8(Scenario), uint8(4), uint64(0), uint8(4))
	f.Fuzz(func(t *testing.T, kind, count uint8, mask uint64, group uint8) {
		techs := make([]config.MemTech, count%64)
		for i := range techs {
			if mask>>i&1 == 1 {
				techs[i] = config.NVM
			}
		}
		checkGenerateMatchesRef(t, Kind(kind%8), techs, int(group%10))
	})
}
