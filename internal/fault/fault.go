// Package fault is the deterministic fault-injection model for a memory
// network: per-link transmission bit errors, SerDes lane failures with
// HMC-style half-width down-binding, link deaths, and cube deaths, all
// driven from one seed so that a faulty scenario replays bit-identically.
//
// The package owns only the *model* — probabilities, schedules, and the
// per-link random streams. The mechanisms (the link-level retry buffer,
// the route-table recomputation, the progress watchdog) live with the
// components they protect, in internal/link, internal/topology, and
// internal/sim; internal/core threads everything together.
//
// # Determinism guarantee
//
// Every link direction draws its CRC outcomes from its own xoshiro
// stream, seeded by (Seed, edge index, direction). Draws therefore do
// not depend on how traffic on different links interleaves, only on the
// sequence of transmissions over that one direction — which the
// single-threaded engine already fixes. Two runs with the same workload
// seed and the same fault Config produce identical Results, counters
// included. Scheduled faults (kills, lane failures) fire at exact
// simulated times through the ordinary event queue.
package fault

import (
	"fmt"
	"math"
	"sort"

	"memnet/internal/packet"
	"memnet/internal/sim"
)

// LinkKill fails one topology edge (both directions) at a simulated
// time. The routing tables are recomputed around the dead edge; packets
// queued on it are drained back into their router and re-routed.
type LinkKill struct {
	// Edge indexes the built topology's Edges slice.
	Edge int
	At   sim.Time
}

// CubeKill fails one memory cube at a simulated time. By default only
// the memory dies: the logic die keeps switching (the standard HMC RAS
// assumption), transit traffic is unaffected, and the cube's address
// range is re-homed to the nearest surviving cube. Full additionally
// removes the cube from every other node's route tables, so no path
// transits it — only redundant topologies (ring, skip list, mesh)
// survive a Full kill of a transit cube.
type CubeKill struct {
	Node packet.NodeID
	At   sim.Time
	Full bool
}

// LaneFail models a SerDes lane failure on one edge at a simulated
// time: the link down-binds to half width (both directions), halving
// BandwidthBps, as HMC links do rather than dying outright. Repeated
// failures of the same edge quarter, eighth, ... the width.
type LaneFail struct {
	Edge int
	At   sim.Time
}

// LinkRepair returns a previously killed edge to service. At is when
// the physical repair lands and retraining begins; the link re-enters
// service (and routes swap back to the pre-fault tables) RetrainWindow
// later. Build rejects a repair of an edge that is not down at At.
type LinkRepair struct {
	Edge int
	At   sim.Time
}

// CubeRepair returns a previously killed cube to service at a
// simulated time: its address range re-homes back from the spare, and
// a Full kill's transit capacity is restored to the route tables. The
// model repairs placement only — data written to the spare during the
// outage is not migrated back (the simulator models performance, not
// contents). Build rejects a repair of a cube that is not dead at At.
type CubeRepair struct {
	Node packet.NodeID
	At   sim.Time
}

// LaneFlap is a transient lane failure: the edge down-binds to half
// width at Down and retrains back to full width at Up (the retraining
// happens under traffic at the degraded width, so Up is the re-bind
// instant; no extra window applies). Build rejects overlapping flap
// windows on one edge and flaps mixed with kills or permanent lane
// failures on the same edge (the width to restore would be ambiguous).
type LaneFlap struct {
	Edge     int
	Down, Up sim.Time
}

// Config is the complete fault scenario for one run. The zero value
// injects nothing; Enabled reports whether any knob is set.
type Config struct {
	// Seed drives every random fault stream. Zero means 1.
	Seed uint64

	// LinkBER is the per-bit transmission error probability on
	// package-to-package SerDes links (interposer traces and cube-internal
	// connections are exempt). A packet whose CRC check fails is held in
	// the sender's retry buffer and retransmitted.
	LinkBER float64

	// MaxRetries bounds retransmissions of one packet; past it the packet
	// is dropped (counted in link Stats.Dropped) and its transaction never
	// completes — the watchdog's job to catch. Zero retries forever,
	// which is the HMC guarantee.
	MaxRetries int

	// RetryBackoff is the base retransmission backoff, doubled per
	// consecutive error on the same packet (capped at 64x). Zero means
	// the 8 ns default.
	RetryBackoff sim.Time

	// Scheduled faults.
	KillLinks []LinkKill
	KillCubes []CubeKill
	LaneFails []LaneFail

	// Scheduled repairs and transient flaps. Every repair must match an
	// earlier kill of the same target; Build validates the full
	// timeline.
	RepairLinks []LinkRepair
	RepairCubes []CubeRepair
	LaneFlaps   []LaneFlap

	// RetrainWindow is the simulated time a repaired link spends
	// retraining (down -> retraining -> up) before it carries traffic
	// again. Zero means the 200 ns default.
	RetrainWindow sim.Time

	// Watchdog arms the progress watchdog even when no fault is
	// configured (diagnosing a wedge in a fault-free scenario). The
	// watchdog is always armed when any fault knob is set.
	Watchdog bool
	// WatchdogInterval is the progress-check period (default 50 µs of
	// simulated time).
	WatchdogInterval sim.Time
	// WatchdogStale is how many consecutive no-progress intervals trip
	// the watchdog (default 4).
	WatchdogStale int
}

// Enabled reports whether the configuration injects any fault or arms
// the watchdog. A disabled Config leaves the simulation bit-identical
// to one with no Config at all.
func (c *Config) Enabled() bool {
	if c == nil {
		return false
	}
	return c.LinkBER > 0 || len(c.KillLinks) > 0 || len(c.KillCubes) > 0 ||
		len(c.LaneFails) > 0 || len(c.RepairLinks) > 0 ||
		len(c.RepairCubes) > 0 || len(c.LaneFlaps) > 0 || c.Watchdog
}

// WithDefaults returns a copy with zero-valued tunables replaced by
// their defaults.
func (c Config) WithDefaults() Config {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.RetryBackoff == 0 {
		c.RetryBackoff = 8 * sim.Nanosecond
	}
	if c.RetrainWindow == 0 {
		c.RetrainWindow = 200 * sim.Nanosecond
	}
	if c.WatchdogInterval == 0 {
		c.WatchdogInterval = 50 * sim.Microsecond
	}
	if c.WatchdogStale == 0 {
		c.WatchdogStale = 4
	}
	return c
}

// Validate checks the scenario's internal consistency. Topology-aware
// checks (edge ranges, connectivity after kills) belong to the builder,
// which knows the graph.
func (c *Config) Validate() error {
	switch {
	case c.LinkBER < 0 || c.LinkBER > 1:
		return fmt.Errorf("fault: LinkBER %v outside [0,1]", c.LinkBER)
	case c.MaxRetries < 0:
		return fmt.Errorf("fault: negative MaxRetries %d", c.MaxRetries)
	case c.RetryBackoff < 0:
		return fmt.Errorf("fault: negative RetryBackoff %v", c.RetryBackoff)
	case c.WatchdogInterval < 0 || c.WatchdogStale < 0:
		return fmt.Errorf("fault: negative WatchdogInterval %v or WatchdogStale %d", c.WatchdogInterval, c.WatchdogStale)
	}
	for i, k := range c.KillLinks {
		if k.At < 0 || k.Edge < 0 {
			return fmt.Errorf("fault: KillLinks[%d]: invalid link kill %+v", i, k)
		}
	}
	for i, k := range c.KillCubes {
		if k.At < 0 || k.Node <= packet.HostNode {
			return fmt.Errorf("fault: KillCubes[%d]: invalid cube kill %+v", i, k)
		}
	}
	for i, k := range c.LaneFails {
		if k.At < 0 || k.Edge < 0 {
			return fmt.Errorf("fault: LaneFails[%d]: invalid lane failure %+v", i, k)
		}
	}
	for i, r := range c.RepairLinks {
		if r.At < 0 || r.Edge < 0 {
			return fmt.Errorf("fault: RepairLinks[%d]: invalid link repair %+v", i, r)
		}
	}
	for i, r := range c.RepairCubes {
		if r.At < 0 || r.Node <= packet.HostNode {
			return fmt.Errorf("fault: RepairCubes[%d]: invalid cube repair %+v", i, r)
		}
	}
	for i, f := range c.LaneFlaps {
		if f.Down < 0 || f.Edge < 0 {
			return fmt.Errorf("fault: LaneFlaps[%d]: invalid lane flap %+v", i, f)
		}
		if f.Up <= f.Down {
			return fmt.Errorf("fault: LaneFlaps[%d]: lane flap on edge %d ends at %v, at or before its start %v",
				i, f.Edge, f.Up, f.Down)
		}
	}
	if c.RetrainWindow < 0 {
		return fmt.Errorf("fault: negative RetrainWindow %v", c.RetrainWindow)
	}
	return nil
}

// EventKind discriminates scheduled fault events.
type EventKind uint8

const (
	// EvKillLink fails an edge.
	EvKillLink EventKind = iota
	// EvKillCube fails a cube (memory, or the whole node when Full).
	EvKillCube
	// EvLaneFail down-binds an edge to half width (a permanent lane
	// failure, or the Down half of a LaneFlap).
	EvLaneFail
	// EvRepairLink returns a killed edge to service. At is the instant
	// retraining completes and the edge carries traffic again; Start is
	// when retraining began (the configured LinkRepair.At).
	EvRepairLink
	// EvRepairCube returns a killed cube to service: its address range
	// re-homes back from the spare.
	EvRepairCube
	// EvLaneRepair re-binds a flapped edge to full width (the Up half
	// of a LaneFlap).
	EvLaneRepair
)

// String names the event kind, snake_case, for timelines and logs.
func (k EventKind) String() string {
	switch k {
	case EvKillLink:
		return "kill_link"
	case EvKillCube:
		return "kill_cube"
	case EvLaneFail:
		return "lane_fail"
	case EvRepairLink:
		return "repair_link"
	case EvRepairCube:
		return "repair_cube"
	case EvLaneRepair:
		return "lane_repair"
	}
	return fmt.Sprintf("EventKind(%d)", uint8(k))
}

// Event is one scheduled fault or repair, in the merged time-ordered
// schedule.
type Event struct {
	At    sim.Time
	Start sim.Time // EvRepairLink: retraining begin (At - RetrainWindow)
	Kind  EventKind
	Edge  int           // EvKillLink, EvLaneFail, EvRepairLink, EvLaneRepair
	Node  packet.NodeID // EvKillCube, EvRepairCube
	Full  bool          // EvKillCube
}

// Schedule merges the configured faults and repairs into one list
// sorted by time (stable, so same-instant events apply in declaration
// order: link kills, cube kills, lane failures, flap downs, then link
// repairs, cube repairs, flap ups — faults before repairs, so an
// ambiguous same-instant kill/repair pair is caught by Build as a kill
// while down). A link repair's event time is its effective link-up
// instant, Start + RetrainWindow, so the sorted order equals the order
// in which routing actually changes; c must carry defaults
// (WithDefaults) for the window to be applied.
func (c *Config) Schedule() []Event {
	evs := make([]Event, 0, len(c.KillLinks)+len(c.KillCubes)+len(c.LaneFails)+
		len(c.RepairLinks)+len(c.RepairCubes)+2*len(c.LaneFlaps))
	for _, k := range c.KillLinks {
		evs = append(evs, Event{At: k.At, Kind: EvKillLink, Edge: k.Edge})
	}
	for _, k := range c.KillCubes {
		evs = append(evs, Event{At: k.At, Kind: EvKillCube, Node: k.Node, Full: k.Full})
	}
	for _, k := range c.LaneFails {
		evs = append(evs, Event{At: k.At, Kind: EvLaneFail, Edge: k.Edge})
	}
	for _, f := range c.LaneFlaps {
		evs = append(evs, Event{At: f.Down, Kind: EvLaneFail, Edge: f.Edge})
	}
	for _, r := range c.RepairLinks {
		evs = append(evs, Event{At: r.At + c.RetrainWindow, Start: r.At, Kind: EvRepairLink, Edge: r.Edge})
	}
	for _, r := range c.RepairCubes {
		evs = append(evs, Event{At: r.At, Kind: EvRepairCube, Node: r.Node})
	}
	for _, f := range c.LaneFlaps {
		evs = append(evs, Event{At: f.Up, Kind: EvLaneRepair, Edge: f.Edge})
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].At < evs[j].At })
	return evs
}

// Build validates the scheduled fault/repair timeline and returns the
// merged, time-ordered event schedule. It walks a per-edge and
// per-cube alive/dead state machine over the sorted events and
// rejects:
//
//   - a repair of a link or cube that is not down at its time (which
//     covers repairs of targets never killed, and repairs scheduled
//     at-or-before their kill — same-instant pairs sort kill-first);
//   - a kill of a target already down, including a link kill landing
//     inside a repair's retraining window;
//   - a link repair whose retraining would begin before the kill;
//   - overlapping or touching flap windows on one edge;
//   - flaps mixed with kills or permanent lane failures on the same
//     edge (the width a flap restores would be ambiguous).
//
// Topology-aware checks (edge ranges, post-kill connectivity) stay
// with the builder in internal/core, which knows the graph. c must
// already carry defaults (WithDefaults).
func (c *Config) Build() ([]Event, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	flapEdges := make(map[int][]LaneFlap)
	for _, f := range c.LaneFlaps {
		flapEdges[f.Edge] = append(flapEdges[f.Edge], f)
	}
	for _, k := range c.KillLinks {
		if len(flapEdges[k.Edge]) > 0 {
			return nil, fmt.Errorf("fault: KillLinks and LaneFlaps: edge %d has both a kill and a lane flap", k.Edge)
		}
	}
	for _, k := range c.LaneFails {
		if len(flapEdges[k.Edge]) > 0 {
			return nil, fmt.Errorf("fault: LaneFails and LaneFlaps: edge %d has both a permanent lane failure and a lane flap", k.Edge)
		}
		// Retraining re-binds the full lane set, which would silently
		// heal a permanent lane failure on the same edge.
		for _, r := range c.RepairLinks {
			if r.Edge == k.Edge {
				return nil, fmt.Errorf("fault: LaneFails and RepairLinks: edge %d has both a permanent lane failure and a link repair", k.Edge)
			}
		}
	}
	flapOrder := make([]int, 0, len(flapEdges))
	for edge := range flapEdges {
		flapOrder = append(flapOrder, edge)
	}
	sort.Ints(flapOrder)
	for _, edge := range flapOrder {
		sorted := append([]LaneFlap(nil), flapEdges[edge]...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i].Down < sorted[j].Down })
		for i := 1; i < len(sorted); i++ {
			if sorted[i].Down <= sorted[i-1].Up {
				return nil, fmt.Errorf("fault: LaneFlaps: overlapping lane flaps on edge %d ([%v,%v] and [%v,%v])",
					edge, sorted[i-1].Down, sorted[i-1].Up, sorted[i].Down, sorted[i].Up)
			}
		}
	}

	evs := c.Schedule()
	linkDown := make(map[int]bool)
	linkKillAt := make(map[int]sim.Time)
	cubeDown := make(map[packet.NodeID]bool)
	cubeKillAt := make(map[packet.NodeID]sim.Time)
	for _, ev := range evs {
		switch ev.Kind {
		case EvKillLink:
			if linkDown[ev.Edge] {
				return nil, fmt.Errorf("fault: KillLinks: edge %d killed at %v while already down or retraining (it must be up)",
					ev.Edge, ev.At)
			}
			linkDown[ev.Edge] = true
			linkKillAt[ev.Edge] = ev.At
		case EvRepairLink:
			if !linkDown[ev.Edge] {
				return nil, fmt.Errorf("fault: RepairLinks: repair of edge %d at %v, which is not down (no earlier kill)",
					ev.Edge, ev.Start)
			}
			if ev.Start <= linkKillAt[ev.Edge] {
				return nil, fmt.Errorf("fault: RepairLinks: repair of edge %d at %v, at or before its kill at %v",
					ev.Edge, ev.Start, linkKillAt[ev.Edge])
			}
			linkDown[ev.Edge] = false
		case EvKillCube:
			if cubeDown[ev.Node] {
				return nil, fmt.Errorf("fault: KillCubes: cube %d killed at %v while already dead (repair it first)",
					ev.Node, ev.At)
			}
			cubeDown[ev.Node] = true
			cubeKillAt[ev.Node] = ev.At
		case EvRepairCube:
			if !cubeDown[ev.Node] {
				return nil, fmt.Errorf("fault: RepairCubes: repair of cube %d at %v, which is not dead (no earlier kill)",
					ev.Node, ev.At)
			}
			if ev.At <= cubeKillAt[ev.Node] {
				return nil, fmt.Errorf("fault: RepairCubes: repair of cube %d at %v, at or before its kill at %v",
					ev.Node, ev.At, cubeKillAt[ev.Node])
			}
			cubeDown[ev.Node] = false
		}
	}
	return evs, nil
}

// LinkFault is the per-direction error model a link.Direction consults
// on every transmission. Nil disables error injection entirely (the
// link hot path then schedules exactly the fault-free event sequence).
type LinkFault struct {
	rng *sim.Rand
	ber float64
	// pData and pControl are the per-packet error probabilities of the
	// only two packet sizes a simulation sends (packet.DataBits and
	// packet.ControlBits), computed once at construction.
	pData, pControl float64

	// MaxRetries and Backoff parameterize the sender's retry buffer;
	// see Config.
	MaxRetries int
	Backoff    sim.Time
}

// LinkFault builds the error model for one direction of one edge
// (dir 0 is A->B, 1 is B->A), or nil when LinkBER is zero. c must
// already carry defaults (WithDefaults).
func (c *Config) LinkFault(edge, dir int) *LinkFault {
	if c.LinkBER <= 0 {
		return nil
	}
	return NewLinkFault(streamSeed(c.Seed, edge, dir), c.LinkBER, c.MaxRetries, c.RetryBackoff)
}

// NewLinkFault builds a standalone error model (exported for tests and
// custom wiring).
func NewLinkFault(seed uint64, ber float64, maxRetries int, backoff sim.Time) *LinkFault {
	return &LinkFault{
		rng:        sim.NewRand(seed),
		ber:        ber,
		pData:      errProb(ber, packet.DataBits),
		pControl:   errProb(ber, packet.ControlBits),
		MaxRetries: maxRetries,
		Backoff:    backoff,
	}
}

// errProb is the probability that at least one of bits bits flips:
// 1 - (1-BER)^bits.
func errProb(ber float64, bits int) float64 {
	return 1 - math.Pow(1-ber, float64(bits))
}

// streamSeed decorrelates per-direction streams from the scenario seed
// with a splitmix-style odd-multiplier jump; sim.NewRand further
// whitens it.
func streamSeed(seed uint64, edge, dir int) uint64 {
	return seed + (uint64(edge)*2+uint64(dir)+1)*0x9e3779b97f4a7c15
}

// Corrupt draws whether a transmission of the given size fails its CRC
// check: p = 1 - (1-BER)^bits.
func (f *LinkFault) Corrupt(bits int) bool {
	var p float64
	switch bits {
	case packet.DataBits:
		p = f.pData
	case packet.ControlBits:
		p = f.pControl
	default:
		p = errProb(f.ber, bits)
	}
	return f.rng.Float64() < p
}
