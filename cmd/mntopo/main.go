// Command mntopo builds a memory-network topology and prints its
// structure: node/edge inventory, per-cube hop distances from the host,
// diameter statistics, and (optionally) Graphviz DOT. It also converts
// between built-in topologies and declarative scenario documents:
// -export emits the scenario JSON a built-in topology is generated as
// (see SCENARIOS.md), and -scenario summarizes a scenario file instead
// of -topology (with -export: prints it normalized, defaults filled in).
//
// Examples:
//
//	mntopo -topology skiplist -cubes 16
//	mntopo -topology metacube -dram-pct 50 -placement first -dot
//	mntopo -topology skiplist -export > skiplist16.json
//	mntopo -scenario examples/scenario/twopod.json -dot
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"memnet/internal/config"
	"memnet/internal/core"
	"memnet/internal/packet"
	"memnet/internal/scenario"
	"memnet/internal/topology"
)

// topoUsage is the -topology help text. It must stay a string constant
// (cmd/mndocs renders flag tables from the AST) and must track
// topology.KindNames exactly; TestTopologyUsageCurrent pins it.
const topoUsage = "chain | ring | tree | skiplist | metacube | mesh"

func main() {
	var (
		topoFlag  = flag.String("topology", "skiplist", topoUsage)
		scenFlag  = flag.String("scenario", "", "summarize a declarative scenario file instead of -topology ('-' = stdin; see SCENARIOS.md)")
		export    = flag.Bool("export", false, "emit the graph as a scenario JSON document on stdout (with -scenario: the normalized document)")
		cubes     = flag.Int("cubes", 0, "build a homogeneous DRAM network of N cubes (overrides ratio)")
		dramPct   = flag.Float64("dram-pct", 100, "percent of capacity from DRAM")
		placeFlag = flag.String("placement", "last", "NVM placement: last | first")
		dot       = flag.Bool("dot", false, "emit Graphviz DOT instead of the summary")
	)
	flag.Parse()

	place, err := config.ParsePlacement(*placeFlag)
	check(err)
	var (
		spec *scenario.Spec
		g    *topology.Graph
	)
	if *scenFlag != "" {
		spec, err = loadScenario(*scenFlag)
		check(err)
		g, err = topology.BuildScenario(spec)
		check(err)
	} else {
		var kind topology.Kind
		kind, err = topology.ParseKind(*topoFlag)
		check(err)

		var techs []config.MemTech
		if *cubes > 0 {
			techs = make([]config.MemTech, *cubes)
		} else {
			sys := config.Default()
			sys.DRAMFraction = *dramPct / 100
			sys.Placement = place
			techs, err = core.TechOrder(&sys)
			check(err)
		}
		spec, g, err = core.Network(kind, techs, core.DefaultTuning().MetaCubeGroup)
		check(err)
	}

	if *export {
		out, err := json.MarshalIndent(spec, "", "  ")
		check(err)
		fmt.Println(string(out))
		return
	}

	if *dot {
		fmt.Print(toDOT(g))
		return
	}

	fmt.Printf("topology  %v  (%d cubes, %d nodes incl. host, %d links)\n",
		g.Kind, len(g.CubeIDs()), g.NumNodes(), len(g.Edges))
	fmt.Printf("diameter  %d hops worst-case host->cube, %.2f average\n",
		g.MaxHostDist(), g.MeanHostDist())
	fmt.Println()
	fmt.Println("node  kind   tech  links  dist(short)  dist(write-path)")
	for _, n := range g.Nodes {
		kind := "cube"
		tech := n.Tech.String()
		switch n.Kind {
		case topology.Host:
			kind, tech = "host", "-"
		case topology.Iface:
			kind, tech = "iface", "-"
		}
		fmt.Printf("%4d  %-5s  %-4s  %5d  %11d  %16d\n",
			n.ID, kind, tech, g.Degree(n.ID),
			g.Dist(topology.PathShort, packet.HostNode, n.ID),
			g.Dist(topology.PathLong, packet.HostNode, n.ID))
	}
	fmt.Println()
	fmt.Println("links (E=express/skip, I=interposer):")
	for _, e := range g.Edges {
		tag := " "
		if e.Express {
			tag = "E"
		}
		if e.Interposer {
			tag = "I"
		}
		fmt.Printf("  %3d -- %-3d %s\n", e.A, e.B, tag)
	}
}

// loadScenario reads a scenario document from a path or stdin ("-").
func loadScenario(path string) (*scenario.Spec, error) {
	if path == "-" {
		return scenario.Load(os.Stdin)
	}
	return scenario.LoadFile(path)
}

// toDOT renders the graph for Graphviz.
func toDOT(g *topology.Graph) string {
	var b strings.Builder
	b.WriteString("graph mn {\n  rankdir=LR;\n")
	for _, n := range g.Nodes {
		switch {
		case n.Kind == topology.Host:
			fmt.Fprintf(&b, "  n%d [label=\"host\", shape=box];\n", n.ID)
		case n.Kind == topology.Iface:
			fmt.Fprintf(&b, "  n%d [label=\"iface%d\", shape=diamond];\n", n.ID, n.ID)
		case n.Tech == config.NVM:
			fmt.Fprintf(&b, "  n%d [label=\"NVM%d\", style=filled];\n", n.ID, n.ID)
		default:
			fmt.Fprintf(&b, "  n%d [label=\"c%d\"];\n", n.ID, n.ID)
		}
	}
	for _, e := range g.Edges {
		attr := ""
		if e.Express {
			attr = " [style=dashed]"
		}
		if e.Interposer {
			attr = " [color=gray]"
		}
		fmt.Fprintf(&b, "  n%d -- n%d%s;\n", e.A, e.B, attr)
	}
	b.WriteString("}\n")
	return b.String()
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "mntopo:", err)
		os.Exit(1)
	}
}
