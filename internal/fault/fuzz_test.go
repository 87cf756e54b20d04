package fault

import (
	"reflect"
	"sort"
	"strings"
	"testing"

	"memnet/internal/packet"
	"memnet/internal/sim"
)

// FuzzFaultConfigBuild decodes bytes into a fault timeline — link and
// cube kills and repairs, permanent lane failures, lane flaps and a
// retraining window — and checks that Build either returns an error
// that names a Config field the timeline sets, or returns a schedule
// that holds every invariant Build documents (see checkSchedule). Build
// must give the same answer twice.
func FuzzFaultConfigBuild(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			data = data[:512]
		}
		c := decodeTimeline(data).WithDefaults()
		evs, err := c.Build()
		evs2, err2 := c.Build()
		if (err == nil) != (err2 == nil) || err != nil && err.Error() != err2.Error() || !reflect.DeepEqual(evs, evs2) {
			t.Fatalf("Build differs between calls: %v, %v", err, err2)
		}
		if err != nil {
			checkBuildError(t, &c, err)
			return
		}
		checkSchedule(t, &c, evs)
	})
}

// fuzzUnit is the time quantum of a decoded timeline: coarse, so that
// events often coincide and land inside each other's windows.
const fuzzUnit = 25 * sim.Nanosecond

// decodeTimeline reads a Config from data. The first byte is the
// retraining window, (b-2) units, so 0 and 1 are negative and 2 takes
// the default. Then each entry is an op byte, taken mod 6, followed by
// a target byte and a time byte, t, at (t-2) units:
//
//	0 KillLinks     3 RepairLinks
//	1 KillCubes     4 RepairCubes
//	2 LaneFails     5 LaneFlaps, with one more byte u: Up = Down + (u-2) units
//
// An edge is target&3 - 1 (so -1 is invalid), a cube target&3 (so 0,
// the host, is invalid), and a cube kill is Full when target&4 is set.
// Past the end of data every read is zero.
func decodeTimeline(data []byte) Config {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	at := func(b byte) sim.Time { return (sim.Time(b) - 2) * fuzzUnit }
	c := Config{RetrainWindow: at(next())}
	for len(data) > 0 {
		op, target, t := next()%6, next(), at(next())
		edge, node := int(target&3)-1, packet.NodeID(target&3)
		switch op {
		case 0:
			c.KillLinks = append(c.KillLinks, LinkKill{Edge: edge, At: t})
		case 1:
			c.KillCubes = append(c.KillCubes, CubeKill{Node: node, At: t, Full: target&4 != 0})
		case 2:
			c.LaneFails = append(c.LaneFails, LaneFail{Edge: edge, At: t})
		case 3:
			c.RepairLinks = append(c.RepairLinks, LinkRepair{Edge: edge, At: t})
		case 4:
			c.RepairCubes = append(c.RepairCubes, CubeRepair{Node: node, At: t})
		case 5:
			c.LaneFlaps = append(c.LaneFlaps, LaneFlap{Edge: edge, Down: t, Up: t + at(next())})
		}
	}
	return c
}

// checkBuildError requires err to be a fault error naming a field c
// sets.
func checkBuildError(t *testing.T, c *Config, err error) {
	t.Helper()
	set := map[string]bool{
		"KillLinks":     len(c.KillLinks) > 0,
		"KillCubes":     len(c.KillCubes) > 0,
		"LaneFails":     len(c.LaneFails) > 0,
		"RepairLinks":   len(c.RepairLinks) > 0,
		"RepairCubes":   len(c.RepairCubes) > 0,
		"LaneFlaps":     len(c.LaneFlaps) > 0,
		"RetrainWindow": c.RetrainWindow < 0,
	}
	msg := err.Error()
	if !strings.HasPrefix(msg, "fault: ") {
		t.Fatalf("error %q is not a fault error", msg)
	}
	for field, ok := range set {
		if ok && strings.Contains(msg, field) {
			return
		}
	}
	t.Fatalf("error %q names no field the timeline sets", msg)
}

// checkSchedule checks an accepted timeline's schedule against what
// Build documents: every fault and repair appears once, repairs of a
// link at the end of its retraining window, in a time order that keeps
// declaration order at equal times (kills, cube kills, lane failures,
// flap downs, link repairs, cube repairs, flap ups); every field is in
// range; walked in that order, no target is killed while down or
// repaired while up, and no repair begins at or before its kill, so no
// link kill lands inside a retraining window; flap windows on an edge
// neither overlap nor touch; and no edge mixes flaps with kills or
// permanent lane failures, or permanent lane failures with repairs.
func checkSchedule(t *testing.T, c *Config, evs []Event) {
	t.Helper()
	if c.RetrainWindow < 0 {
		t.Fatalf("accepted a negative retraining window %v", c.RetrainWindow)
	}
	var want []Event
	for _, k := range c.KillLinks {
		want = append(want, Event{At: k.At, Kind: EvKillLink, Edge: k.Edge})
	}
	for _, k := range c.KillCubes {
		want = append(want, Event{At: k.At, Kind: EvKillCube, Node: k.Node, Full: k.Full})
	}
	for _, k := range c.LaneFails {
		want = append(want, Event{At: k.At, Kind: EvLaneFail, Edge: k.Edge})
	}
	for _, f := range c.LaneFlaps {
		want = append(want, Event{At: f.Down, Kind: EvLaneFail, Edge: f.Edge})
	}
	for _, r := range c.RepairLinks {
		want = append(want, Event{At: r.At + c.RetrainWindow, Start: r.At, Kind: EvRepairLink, Edge: r.Edge})
	}
	for _, r := range c.RepairCubes {
		want = append(want, Event{At: r.At, Kind: EvRepairCube, Node: r.Node})
	}
	for _, f := range c.LaneFlaps {
		want = append(want, Event{At: f.Up, Kind: EvLaneRepair, Edge: f.Edge})
	}
	sort.SliceStable(want, func(i, j int) bool { return want[i].At < want[j].At })
	if len(evs) != len(want) {
		t.Fatalf("schedule has %d events, the timeline %d", len(evs), len(want))
	}
	for i := range want {
		if evs[i] != want[i] {
			t.Fatalf("event %d is %+v, want %+v", i, evs[i], want[i])
		}
	}

	type edgeUse struct{ kills, lanes, repairs int }
	edges := map[int]*edgeUse{}
	use := func(e int) *edgeUse {
		if edges[e] == nil {
			edges[e] = &edgeUse{}
		}
		return edges[e]
	}
	linkDown, cubeDown := map[int]sim.Time{}, map[packet.NodeID]sim.Time{}
	for i, ev := range evs {
		if ev.At < 0 || ev.Start < 0 || ev.Edge < 0 {
			t.Fatalf("event %d out of range: %+v", i, ev)
		}
		switch ev.Kind {
		case EvKillLink:
			if _, down := linkDown[ev.Edge]; down {
				t.Fatalf("event %d kills edge %d while it is down", i, ev.Edge)
			}
			linkDown[ev.Edge] = ev.At
			use(ev.Edge).kills++
		case EvRepairLink:
			kill, down := linkDown[ev.Edge]
			if !down || ev.Start <= kill {
				t.Fatalf("event %d repairs edge %d from %v, not after a kill (down %v, killed at %v)",
					i, ev.Edge, ev.Start, down, kill)
			}
			for _, k := range c.KillLinks {
				if k.Edge == ev.Edge && ev.Start <= k.At && k.At <= ev.At {
					t.Fatalf("edge %d killed at %v inside its retraining window [%v, %v]", k.Edge, k.At, ev.Start, ev.At)
				}
			}
			delete(linkDown, ev.Edge)
			use(ev.Edge).repairs++
		case EvKillCube:
			if _, down := cubeDown[ev.Node]; down || ev.Node <= packet.HostNode {
				t.Fatalf("event %d kills cube %d, down or the host", i, ev.Node)
			}
			cubeDown[ev.Node] = ev.At
		case EvRepairCube:
			kill, down := cubeDown[ev.Node]
			if !down || ev.At <= kill {
				t.Fatalf("event %d repairs cube %d at %v, not after a kill (down %v, killed at %v)",
					i, ev.Node, ev.At, down, kill)
			}
			delete(cubeDown, ev.Node)
		}
	}
	for _, k := range c.LaneFails {
		use(k.Edge).lanes++
	}
	flaps := map[int][]LaneFlap{}
	for _, f := range c.LaneFlaps {
		if f.Up <= f.Down {
			t.Fatalf("accepted an inverted flap %+v", f)
		}
		flaps[f.Edge] = append(flaps[f.Edge], f)
	}
	for e, u := range edges {
		if len(flaps[e]) > 0 && (u.kills > 0 || u.lanes > 0) {
			t.Fatalf("edge %d mixes flaps with %d kills and %d lane failures", e, u.kills, u.lanes)
		}
		if u.lanes > 0 && u.repairs > 0 {
			t.Fatalf("edge %d has a permanent lane failure and a repair", e)
		}
	}
	for e, fs := range flaps {
		for i := range fs {
			for j := range fs {
				if i != j && fs[i].Down <= fs[j].Down && fs[j].Down <= fs[i].Up {
					t.Fatalf("edge %d: flaps %+v and %+v overlap or touch", e, fs[i], fs[j])
				}
			}
		}
	}
}
