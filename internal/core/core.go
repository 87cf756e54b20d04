// Package core composes the memnet subsystems — topology graph, links,
// routers, vault quadrants, host port, workload generator, statistics and
// energy meters — into one runnable simulated memory network, and is
// where the paper's proposals (distance-based arbitration, the skip-list
// read/write differentiated routing, MetaCube clustering, and DRAM:NVM
// mixing) come together.
//
// A simulation instance models a single host memory port and its MN.
// This is exact, not an approximation: the paper's systems interleave the
// physical address space across ports so each port's network is disjoint
// and identically loaded (§2.3); whole-system numbers are per-port
// numbers, and port-count sweeps rescale the per-port cube count and
// injection rate.
package core

import (
	"fmt"
	"math"
	"slices"
	"strconv"

	"memnet/internal/addr"
	"memnet/internal/arb"
	"memnet/internal/config"
	"memnet/internal/energy"
	"memnet/internal/fault"
	"memnet/internal/host"
	"memnet/internal/link"
	"memnet/internal/mem"
	"memnet/internal/obs"
	"memnet/internal/packet"
	"memnet/internal/router"
	"memnet/internal/scenario"
	"memnet/internal/sim"
	"memnet/internal/span"
	"memnet/internal/stats"
	"memnet/internal/topology"
	"memnet/internal/vault"
	"memnet/internal/workload"
)

// Tuning holds the microarchitectural constants that are not part of the
// paper's Table 2 but that the model needs; defaults reproduce the
// paper's qualitative behavior and are exercised by the ablation benches.
// A run with an all-zero Tuning runs DefaultTuning(). Any other Tuning
// is taken as given, field by field, so every field must be in the range
// Validate accepts: start from DefaultTuning() and change fields.
type Tuning struct {
	// VaultQueueDepth is the per-quadrant request queue (packets).
	VaultQueueDepth int
	// VaultMaxInflight bounds concurrent bank accesses per quadrant.
	VaultMaxInflight int
	// InternalBandwidthX multiplies the external link bandwidth for the
	// router<->vault connections on the logic die.
	InternalBandwidthX int
	// SwitchBandwidthBps is a memory cube's centralized-switch internal
	// bandwidth. Heavily transited cubes (every cube of a chain, the
	// root of any topology) contend here before saturating any one
	// link; this is where response priority backs requests up (§3.2).
	// Zero models an ideal switch, as it does for the interface chip.
	SwitchBandwidthBps int64
	// IfaceSwitchBandwidthBps is the same for a MetaCube interface
	// chip, whose interposer crossbar is high-radix and wider (§4.3).
	IfaceSwitchBandwidthBps int64
	// InterposerBandwidthX multiplies the external link bandwidth for
	// MetaCube interposer traces; InterposerSerDes replaces the 2 ns
	// SerDes cost on those links (wide parallel wires need no SerDes).
	InterposerBandwidthX int
	InterposerSerDes     sim.Time
	// ShortcutHi/Lo are the write-burst hysteresis watermarks (§5.3).
	ShortcutHi, ShortcutLo float64
	ShortcutWindow         int
	// NVMMaxInflight bounds concurrent array operations per NVM
	// quadrant; PCM current-delivery limits pipeline far fewer
	// concurrent array operations than DRAM. Zero bounds them by
	// VaultMaxInflight, as DRAM's.
	NVMMaxInflight int
	// MetaCubeGroup is the number of cubes per MetaCube package
	// (default 4; bounded by interposer size, §4.3).
	MetaCubeGroup int
	// WavefrontSize is the host's GPU-style group-retirement size.
	WavefrontSize int
	// WriteDemotion is the augmented arbitration's write weight divisor.
	WriteDemotion int64
	// NoVCPriority disables response-over-request link priority
	// (ablation).
	NoVCPriority bool
}

// DefaultTuning returns the standard tuning.
func DefaultTuning() Tuning {
	return Tuning{
		VaultQueueDepth:         8,
		VaultMaxInflight:        16,
		NVMMaxInflight:          8,
		InternalBandwidthX:      2,
		SwitchBandwidthBps:      300e9,
		IfaceSwitchBandwidthBps: 960e9,
		InterposerBandwidthX:    2,
		InterposerSerDes:        500 * sim.Picosecond,
		ShortcutHi:              0.65,
		ShortcutLo:              0.45,
		ShortcutWindow:          64,
		MetaCubeGroup:           4,
		WavefrontSize:           16,
		WriteDemotion:           2,
	}
}

// maxBandwidthX bounds the bandwidth multipliers, far above any modelled
// die or interposer and far below overflowing a link's bits per second.
const maxBandwidthX = 1 << 16

// Validate checks each field of t against the range a build accepts and
// returns an error naming the first field out of range. Resolved runs
// it on the resolved Tuning, so a partly set Tuning fails there, with
// the first field it left at zero, rather than inside a component. A
// switch bandwidth may also be 0, an ideal switch.
func (t *Tuning) Validate() error {
	for _, f := range [...]struct {
		name      string
		v, lo, hi int64
	}{
		{"VaultQueueDepth", int64(t.VaultQueueDepth), 1, config.MaxBufferPackets},
		{"VaultMaxInflight", int64(t.VaultMaxInflight), 1, math.MaxInt32},
		{"InternalBandwidthX", int64(t.InternalBandwidthX), 1, maxBandwidthX},
		{"SwitchBandwidthBps", t.SwitchBandwidthBps, config.MinBandwidthBps, config.MaxBandwidthBps},
		{"IfaceSwitchBandwidthBps", t.IfaceSwitchBandwidthBps, config.MinBandwidthBps, config.MaxBandwidthBps},
		{"InterposerBandwidthX", int64(t.InterposerBandwidthX), 1, maxBandwidthX},
		{"InterposerSerDes", int64(t.InterposerSerDes), 0, int64(config.MaxLatency)},
		{"ShortcutWindow", int64(t.ShortcutWindow), 1, config.MaxWindow},
		{"NVMMaxInflight", int64(t.NVMMaxInflight), 0, math.MaxInt32},
		{"MetaCubeGroup", int64(t.MetaCubeGroup), 1, math.MaxInt32},
		{"WavefrontSize", int64(t.WavefrontSize), 1, math.MaxInt32},
		{"WriteDemotion", t.WriteDemotion, 1, math.MaxInt64},
	} {
		idealSwitch := f.v == 0 && f.lo == config.MinBandwidthBps
		if (f.v < f.lo || f.v > f.hi) && !idealSwitch {
			return fmt.Errorf("core: Tuning.%s is %d, want %d to %d", f.name, f.v, f.lo, f.hi)
		}
	}
	if !(t.ShortcutHi >= 0 && t.ShortcutHi <= 1) {
		return fmt.Errorf("core: Tuning.ShortcutHi is %v, want 0 to 1", t.ShortcutHi)
	}
	if !(t.ShortcutLo >= 0 && t.ShortcutLo <= t.ShortcutHi) {
		return fmt.Errorf("core: Tuning.ShortcutLo is %v, want 0 to ShortcutHi (%v)", t.ShortcutLo, t.ShortcutHi)
	}
	return nil
}

// Params fully specifies one simulation run. Resolved completes and
// checks it; Build runs what Resolved returns.
type Params struct {
	Sys config.System
	// Topo is the built-in topology of a run without a Scenario. For a
	// scenario run, Resolved sets it from the built graph: the spec's
	// declared built-in kind, or topology.Scenario.
	Topo topology.Kind
	Arb  arb.Kind
	// Workload drives the port; its MeanGap is automatically rescaled
	// for port counts other than 8 (fewer ports concentrate the same
	// system load onto each port).
	Workload workload.Spec
	// Transactions is the trace length to complete.
	Transactions uint64
	// Seed makes runs reproducible; runs differing only in Seed are
	// statistically independent.
	Seed uint64
	// Replay, when non-empty, drives the port with the given recorded
	// transaction trace (cycled if shorter than Transactions) instead of
	// the synthetic workload generator; Workload then only labels the
	// run. Trace gaps are used verbatim (no port-count rescaling).
	Replay []workload.Tx
	// Record wraps the generator in a recorder; the trace is available
	// from Instance.Recorder after the run.
	Record bool
	// Fault, when non-nil and enabled, arms the runtime fault-injection
	// and resilience layer: link bit errors with retry, scheduled lane
	// failures, link kills, cube kills with route-around and address
	// re-homing, and the progress watchdog. A nil or disabled Fault
	// leaves the simulation bit-identical to a build without it.
	Fault *fault.Config
	// Obs, when non-nil and enabled, arms the telemetry layer
	// (internal/obs): metrics registry, interval sampler, and the
	// exporters behind Instance.Telemetry and Instance.Manifest.
	// Telemetry never changes what the simulation does: Results are
	// bit-identical with Obs enabled and disabled.
	Obs *obs.Config
	// Spans, when non-nil, arms causal span tracing (internal/span):
	// one latency-decomposition span tree per sampled transaction,
	// collected through nil-checked hooks at existing event boundaries.
	// Like Obs, it never changes what the simulation does: Results are
	// bit-identical with Spans enabled and disabled.
	Spans *span.Config
	// Scenario, when non-nil, declares the component graph in place of
	// the spec topology.Generate emits for Topo: the run applies the
	// spec's per-link and per-router overrides and skips the capacity
	// equation (the cube population is whatever the spec declares).
	// A caller-set Topo is ignored; Resolved derives it. The spec's
	// workload and fault blocks are NOT applied here — callers resolve
	// them into Workload and Fault (see memnet.Config and ScenarioFault)
	// so precedence stays explicit.
	Scenario *scenario.Spec
	Tuning   Tuning
}

// Resolved returns p completed and checked, as Build runs it, or an
// error naming the first field at fault; it is the one place a run is
// completed and validated. An all-zero Tuning becomes DefaultTuning(),
// and Fault is nil unless Enabled, else a copy with WithDefaults
// applied. Sys must pass System.Validate (ValidateBase for a scenario
// run, which declares its own cubes), and Transactions, Workload,
// Tuning and Fault their checks. The run's network is built and Topo
// set from it. Resolving a resolved run returns it unchanged. Build,
// RunMachine and the result cache all start from it, so Params that
// resolve alike are one run.
func (p Params) Resolved() (Params, error) {
	r, _, err := p.resolve()
	return r, err
}

// resolve is Resolved that also returns the run's network, so Build
// wires the graph resolution built instead of building it again.
func (p Params) resolve() (Params, network, error) {
	var err error
	if p.Scenario != nil {
		err = p.Sys.ValidateBase()
	} else {
		err = p.Sys.Validate()
	}
	if err != nil {
		return Params{}, network{}, err
	}
	if p.Transactions == 0 {
		return Params{}, network{}, fmt.Errorf("core: Transactions is 0, want at least 1")
	}
	if err := p.Workload.Validate(); err != nil {
		return Params{}, network{}, err
	}
	if p.Tuning == (Tuning{}) {
		p.Tuning = DefaultTuning()
	}
	if err := p.Tuning.Validate(); err != nil {
		return Params{}, network{}, err
	}
	if p.Fault.Enabled() {
		f := p.Fault.WithDefaults()
		if err := f.Validate(); err != nil {
			return Params{}, network{}, err
		}
		p.Fault = &f
	} else {
		p.Fault = nil
	}
	n, err := networkOf(&p)
	if err != nil {
		return Params{}, network{}, err
	}
	p.Topo = n.graph.Kind
	return p, n, nil
}

// Label renders the configuration the way the paper labels its bars,
// e.g. "100%-T", "50%-SL (NVM-L)", "0%-MC". A free-form scenario run
// is labeled by its scenario name; a scenario that declares a built-in
// topology kind labels exactly like the compiled-in configuration.
// Topo must be resolved for a scenario run.
func (p *Params) Label() string {
	if p.Topo == topology.Scenario && p.Scenario != nil {
		return p.Scenario.Name
	}
	return ConfigLabel(p.Topo, p.Sys.DRAMFraction, p.Sys.Placement)
}

// ConfigLabel is the paper's label of a built-in configuration: the
// DRAM percentage, the topology's letter and, for a mix, the NVM
// placement, e.g. "100%-T", "50%-SL (NVM-L)". It allocates only the
// returned string.
func ConfigLabel(kind topology.Kind, dramFraction float64, place config.Placement) string {
	pct := int(dramFraction*100 + 0.5)
	var buf [24]byte
	b := strconv.AppendInt(buf[:0], int64(pct), 10)
	b = append(b, "%-"...)
	b = append(b, kind.Letter()...)
	if pct > 0 && pct < 100 {
		b = append(b, " ("...)
		b = append(b, place.String()...)
		b = append(b, ')')
	}
	return string(b)
}

// Instance is a built, runnable simulation.
type Instance struct {
	// Params is the run's parameters as Build resolved them
	// (Params.Resolved): Fault is non-nil exactly when faults are armed.
	Params    Params
	Eng       *sim.Engine
	Graph     *topology.Graph
	Mapper    *addr.Mapper
	Port      *host.Port
	Collector *stats.Collector
	Meter     *energy.Meter

	// Recorder is non-nil when Params.Record captured the trace.
	Recorder *workload.Recorder

	// Watchdog is non-nil when Params.Fault armed the progress watchdog.
	Watchdog *sim.Watchdog

	// Telemetry is non-nil when Params.Obs armed the metrics layer.
	Telemetry *Telemetry

	// Spans is non-nil when Params.Spans armed causal span tracing; its
	// completed spans are exported with Instance.WriteSpans.
	Spans *span.Recorder

	// timing holds the build's DRAM and NVM timing sets, indexed by
	// config.MemTech, which every quadrant of the technology shares.
	timing [2]config.MemTiming

	// nodes is the build's per-node table, indexed by node ID: each
	// entry holds its node's router and quadrants, every router routes
	// through its node's entry, every quadrant takes its return
	// distances from its cube's, and a dead cube's entry holds its
	// re-home spare.
	nodes []nodeCtx
	// rehomed counts the dead cubes whose address ranges are re-homed.
	rehomed int

	// live is the routing graph the node table consults; it starts as
	// Graph and is swapped for a degraded (Disable) graph when a
	// scheduled fault recomputes routes. Port indices are preserved
	// across swaps, so the wired network never changes shape.
	live *topology.Graph
	// dirs holds the two directions of every external edge, indexed like
	// Graph.Edges, for scheduled faults to down-bind or kill.
	dirs []edgeDirs
	// hostIn is the root-to-host direction, whose credits the host side
	// returns as it consumes responses.
	hostIn *link.Direction

	// Fault plan of Params.Fault, precomputed and validated at Build
	// time: one entry per scheduled event; planGraphs[i] is the routing
	// graph after event i (nil when routing is unchanged), planSpares[i]
	// the re-home target of a cube kill.
	planEvents []fault.Event
	planGraphs []*topology.Graph
	planSpares []packet.NodeID
	fc         stats.FaultCounters
}

// edgeDirs is the direction pair of one undirected edge.
type edgeDirs struct{ ab, ba *link.Direction } // A->B, B->A

// nodeCtx is one node's entry in a build's per-node table. It is its
// router's routing (router.Routing) and, for a cube, its quadrants'
// return path (vault.ReturnPath), so wiring a node allocates nothing.
type nodeCtx struct {
	in *Instance
	// router is the node's router, nil for the host; quads are a cube's
	// quadrants in index order.
	router *router.Router
	quads  []vault.Quadrant
	id     packet.NodeID
	// extDeg is the node's external link count; a cube's quadrant q is
	// router port extDeg+q.
	extDeg int
	isCube bool
	// rehomed is set while the cube is dead; spare is then the
	// surviving cube serving its address range. Chains are collapsed as
	// cubes die, so a spare is never itself dead.
	rehomed bool
	spare   packet.NodeID
}

// ports is the port count of the node's router: its external links,
// plus quads quadrants for a cube.
func (c *nodeCtx) ports(quads int) int {
	if c.isCube {
		return c.extDeg + quads
	}
	return c.extDeg
}

// Route returns the port a packet leaves the node's router through:
// its quadrant when it has reached its destination cube, else the next
// hop of the live route tables for its path class. A request that
// reaches a cube whose memory died after it departed is bounced to the
// spare now serving its address range.
func (c *nodeCtx) Route(pk *packet.Packet) int {
	in := c.in
	if c.isCube && pk.Dst == c.id {
		if !c.rehomed || !pk.Kind.IsRequest() {
			return c.extDeg + in.Mapper.QuadrantOf(pk.Addr)
		}
		pk.Dst = c.spare
		pk.Distance = in.live.Dist(topology.PathShort, packet.HostNode, c.spare)
		in.fc.Bounced++
	}
	port := in.live.NextPort(topology.PathClass(pk.Class), c.id, pk.Dst)
	if port < 0 {
		panic(fmt.Sprintf("core: no route from %d to %d", c.id, pk.Dst))
	}
	return port
}

// ReturnDist is the hop distance from the cube back to a request's
// source: responses travel the short (shortest-path) table.
func (c *nodeCtx) ReturnDist(pk *packet.Packet) int {
	return c.in.live.Dist(topology.PathShort, c.id, pk.Src)
}

// hostSide is an instance as its host port sees it: the network the
// port injects into (host.Network) and the receiver of the root-to-host
// direction (link.Receiver), so wiring the host allocates nothing.
type hostSide Instance

// HomeOf returns the cube serving address a: its home cube, or while
// that cube is dead the spare its address range is re-homed to.
func (h *hostSide) HomeOf(a uint64) packet.NodeID {
	n := h.Mapper.CubeOf(a)
	if c := &h.nodes[n]; c.rehomed {
		h.fc.Rehomed++
		return c.spare
	}
	return n
}

// HostDist is the hop distance from the host to dst in the live route
// tables of class.
func (h *hostSide) HostDist(dst packet.NodeID, class topology.PathClass) int {
	return h.live.Dist(class, packet.HostNode, dst)
}

// Receive consumes a response at the host and returns its link credit.
// Telemetry and spans read the response before the port's Receive
// retires (and may pool) it; Telemetry and Spans stay nil when their
// layer is off, and their methods no-op on nil.
func (h *hostSide) Receive(pk *packet.Packet) {
	vc := packet.VCOf(pk.Kind)
	now := h.Eng.Now()
	h.Telemetry.complete(pk, now)
	h.Spans.Complete(pk, now)
	h.Port.Receive(pk)
	h.hostIn.ReturnCredit(vc)
}

// TechOrder returns the per-position cube technologies implied by the
// system's DRAM fraction and placement. Position 0 is nearest the host.
func TechOrder(sys *config.System) ([]config.MemTech, error) {
	return techOrder(nil, sys)
}

// techOrder appends TechOrder(sys) to techs.
func techOrder(techs []config.MemTech, sys *config.System) ([]config.MemTech, error) {
	nd, nn, err := sys.CubesPerPort()
	if err != nil {
		return nil, err
	}
	near, far, nNear, nFar := config.DRAM, config.NVM, nd, nn
	if sys.Placement == config.NVMFirst {
		near, far, nNear, nFar = config.NVM, config.DRAM, nn, nd
	}
	techs = slices.Grow(techs, nd+nn)
	for i := 0; i < nNear; i++ {
		techs = append(techs, near)
	}
	for i := 0; i < nFar; i++ {
		techs = append(techs, far)
	}
	return techs, nil
}

// Build constructs a simulation instance from params on a fresh engine.
// It runs p as Resolved returns it, wiring the graph resolution built.
func Build(p Params) (*Instance, error) {
	p, net, err := p.resolve()
	if err != nil {
		return nil, err
	}
	scen, g := net.spec, net.graph
	eng := sim.NewEngine()

	// Capacity-proportional interleave slots in cube position order.
	slots := make([]addr.CubeSlot, 0, len(g.Nodes))
	for _, n := range g.Nodes {
		if n.Kind != topology.Cube {
			continue
		}
		units := 1
		if n.Tech == config.NVM {
			units = int(p.Sys.NVMCubeCapacity / p.Sys.DRAMCubeCapacity)
			if units < 1 {
				units = 1
			}
		}
		slots = append(slots, addr.CubeSlot{Node: n.ID, Tech: n.Tech, Units: units})
	}
	mapper, err := addr.NewMapper(&p.Sys, slots)
	if err != nil {
		return nil, err
	}

	meter := energy.NewMeter(p.Sys.Energy)
	collector := stats.NewCollector(false)

	// Span recorder and its hook binders: the run's one per-packet
	// record. Hooks are bound inline at the wiring sites below: each
	// reads timestamps the components already compute and never
	// schedules events, so Results stay bit-identical with spans on.
	// spanNode/bindShip build every edge label once at wiring time; the
	// hot path only copies the prebuilt string header into segments of
	// sampled transactions. spans is assigned once, so the closures
	// capture its value and it does not move to the heap.
	spans := spanRecorder(&p)
	spanNode := func(n packet.NodeID) string {
		if n == packet.HostNode {
			return "h"
		}
		return fmt.Sprintf("%d", n)
	}
	bindShip := func(d *link.Direction, label string) {
		if spans == nil {
			return
		}
		serdes := d.SerDes()
		d.SetOnShip(func(pk *packet.Packet, enq, pop, start, end sim.Time) {
			spans.Ship(pk, label, serdes, enq, pop, start, end)
		})
	}

	inst := &Instance{
		Params:    p,
		Eng:       eng,
		Graph:     g,
		Mapper:    mapper,
		Collector: collector,
		Meter:     meter,
		nodes:     make([]nodeCtx, len(g.Nodes)),
		live:      g,
	}
	for i, n := range g.Nodes {
		inst.nodes[i] = nodeCtx{in: inst, id: n.ID, extDeg: g.Degree(n.ID), isCube: n.Kind == topology.Cube}
	}
	inst.timing[config.DRAM], inst.timing[config.NVM] = p.Sys.DRAMTiming, p.Sys.NVMTiming

	// Precompute and validate the fault plan: every scheduled fault's
	// degraded routing graph and re-home target is built here, so an
	// unsurvivable scenario (a chain cut, a Full cube kill with no
	// redundancy, a kill leaving no memory) fails at Build, not mid-run.
	faultOn := p.Fault != nil
	if faultOn {
		if err := inst.planFaults(); err != nil {
			return nil, err
		}
	}

	// Workload generator: per-port load scales inversely with the port
	// count (the system-wide request rate is fixed; §6.1). The host's
	// MLP window scales the same way — the processor's total outstanding
	// capacity is a system property divided across its ports.
	spec := p.Workload
	spec.MeanGap = spec.MeanGap * sim.Time(p.Sys.Ports) / 8
	if spec.Window > 0 {
		spec.Window = spec.Window * 8 / p.Sys.Ports
	}
	var gen workload.Generator
	if len(p.Replay) > 0 {
		gen = workload.NewReplay(p.Replay)
	} else {
		gen = workload.New(spec, p.Sys.PortCapacity(), p.Seed)
	}
	if p.Record {
		rec := workload.NewRecorder(gen)
		gen = rec
		inst.Recorder = rec
	}

	window := p.Sys.MaxOutstanding * 8 / p.Sys.Ports
	if window < 1 {
		window = 1
	}
	if spec.Window > 0 && spec.Window < window {
		window = spec.Window
	}
	hostPort := host.New(eng, host.Config{
		MaxOutstanding: window,
		HostLatency:    p.Sys.HostLatency,
		Target:         p.Transactions,
		ShortcutEnable: p.Arb == arb.DistanceAugmented,
		ShortcutHi:     p.Tuning.ShortcutHi,
		ShortcutLo:     p.Tuning.ShortcutLo,
		ShortcutWindow: p.Tuning.ShortcutWindow,
		WavefrontSize:  p.Tuning.WavefrontSize,
	}, gen, (*hostSide)(inst), collector)
	inst.Port = hostPort

	// The network's components live in one slice per type, sized from
	// the graph: a router and its arbiter (one slice of pairs) per
	// non-host node, and the routers' port storage by their real port
	// counts (external links plus a cube's quadrants); a direction pair
	// per edge and per quadrant; an input buffer per external router
	// port, plus two per quadrant (its request queue and its port on the
	// router); and every quadrant's banks, which are ready to use as
	// allocated (a zero mem.Bank is closed, clean and unrefreshed). With
	// a fault plan, every edge direction also takes a fault record from
	// one more slab; without one no direction has a record. take hands
	// out their elements in order; the slices never grow, so the
	// pointers wired below stay valid.
	nRouters, nPorts, nCubes, width := 0, 0, 0, 0
	for _, n := range g.Nodes {
		if n.Kind == topology.Host {
			continue
		}
		nRouters++
		nPorts += g.Degree(n.ID)
		width = max(width, inst.nodes[n.ID].ports(p.Sys.Quadrants))
		if n.Kind == topology.Cube {
			nCubes++
		}
	}
	nQuads := nCubes * p.Sys.Quadrants
	portSlab := router.NewSlab(nRouters, nPorts+nQuads, width)
	nBanks := p.Sys.BanksPerQuadrant()
	switchSlab := make([]switchPair, 0, nRouters)
	quadSlab := make([]vault.Quadrant, 0, nQuads)
	bankSlab := make([]mem.Bank, nQuads*nBanks)
	dirSlab := make([]link.Direction, 0, 2*len(g.Edges)+2*nQuads)
	bufSlab := make([]link.Buffer, 0, nPorts+2*nQuads)
	var faultSlab []link.Faults
	if faultOn {
		faultSlab = make([]link.Faults, 0, 2*len(g.Edges))
	}
	newDir := func(cfg link.Config) *link.Direction {
		d := take(&dirSlab)
		d.Init(eng, cfg, meter)
		return d
	}
	newBuf := func(depth int, credit link.CreditReturner) *link.Buffer {
		b := take(&bufSlab)
		b.Init(depth, credit)
		return b
	}

	// Routers for every non-host node, each with a stateful arbiter. A
	// scenario can pin an individual router's policy and write
	// demotion; everything else inherits the run-wide settings. The
	// augmented arbiters share one technology-bias table.
	var bias []int64
	for _, n := range g.Nodes {
		if n.Kind == topology.Host {
			continue
		}
		xbar := p.Tuning.SwitchBandwidthBps
		if n.Kind == topology.Iface {
			xbar = p.Tuning.IfaceSwitchBandwidthBps
		}
		aKind, demotion := p.Arb, p.Tuning.WriteDemotion
		if rs, ok := scen.RouterOf(int(n.ID)); ok {
			if rs.Arb != "" {
				k, err := scenario.ParseArb(rs.Arb)
				if err != nil {
					return nil, fmt.Errorf("core: routers.%d: %w", n.ID, err)
				}
				aKind = k
			}
			if rs.WriteDemotion != nil {
				demotion = *rs.WriteDemotion
			}
			if rs.SwitchBandwidthBps != nil {
				xbar = *rs.SwitchBandwidthBps
			}
		}
		if aKind == arb.DistanceAugmented && bias == nil {
			bias = techBias(mapper, len(g.Nodes), &p.Sys)
		}
		c := &inst.nodes[n.ID]
		sw := take(&switchSlab)
		a, r := &sw.arb, &sw.router
		a.Init(aKind, demotion, bias)
		r.Init(eng, n.ID, a, xbar)
		r.Reserve(&portSlab, c.ports(p.Sys.Quadrants))
		r.SetRouting(c)
		if spans != nil {
			label := fmt.Sprintf("r%d", n.ID)
			r.OnForward = func(pk *packet.Packet, port int, wait sim.Time) {
				spans.Seg(pk, span.RouterArb, label, eng.Now()-wait, wait)
			}
		}
		c.router = r
	}

	// Per-edge link direction pairs, attached in adjacency order so that
	// graph port indices equal router port indices.
	extLink := link.Config{
		BandwidthBps:  p.Sys.LinkBandwidthBps(),
		SerDesLatency: p.Sys.SerDesLatency,
		QueueDepth:    p.Sys.LinkBufferPackets,
		Credits:       p.Sys.LinkBufferPackets,
		NoVCPriority:  p.Tuning.NoVCPriority,
		CountHop:      true,
	}
	ipLink := extLink
	ipLink.BandwidthBps *= int64(p.Tuning.InterposerBandwidthX)
	ipLink.SerDesLatency = p.Tuning.InterposerSerDes

	dirs := make([]edgeDirs, len(g.Edges))
	for ei, e := range g.Edges {
		cfg := extLink
		if e.Interposer {
			cfg = ipLink
		}
		// Per-link scenario overrides; scen.Links is index-aligned with
		// g.Edges by construction (BuildScenario preserves link order).
		l := scen.Links[ei]
		if l.BandwidthBps != nil {
			cfg.BandwidthBps = *l.BandwidthBps
		}
		if l.SerDesPs != nil {
			cfg.SerDesLatency = sim.Time(*l.SerDesPs) * sim.Picosecond
		}
		if l.BufferPackets != nil {
			cfg.QueueDepth = *l.BufferPackets
			cfg.Credits = *l.BufferPackets
		}
		if l.VCs != nil {
			cfg.NoVCPriority = *l.VCs == 1
		}
		dirs[ei] = edgeDirs{ab: newDir(cfg), ba: newDir(cfg)}
		if faultOn {
			dirs[ei].ab.SetFaults(take(&faultSlab))
			dirs[ei].ba.SetFaults(take(&faultSlab))
		}
		// Bit errors afflict package-to-package SerDes channels; the
		// wide parallel interposer traces inside a MetaCube are exempt.
		if faultOn && !e.Interposer {
			fa := p.Fault.LinkFault(ei, 0)
			fb := p.Fault.LinkFault(ei, 1)
			if l.MaxRetries != nil {
				if fa != nil {
					fa.MaxRetries = *l.MaxRetries
				}
				if fb != nil {
					fb.MaxRetries = *l.MaxRetries
				}
			}
			dirs[ei].ab.AttachFault(fa)
			dirs[ei].ba.AttachFault(fb)
		}
		if spans != nil {
			la, lb := spanNode(e.A), spanNode(e.B)
			bindShip(dirs[ei].ab, la+">"+lb)
			bindShip(dirs[ei].ba, lb+">"+la)
		}
	}
	inst.dirs = dirs

	for _, n := range g.Nodes {
		if n.Kind == topology.Host {
			continue
		}
		r := inst.nodes[n.ID].router
		for port := 0; port < g.Degree(n.ID); port++ {
			e := g.EdgeAt(n.ID, port)
			var out, in *link.Direction
			ei := g.EdgeIndex(n.ID, port)
			if e.A == n.ID {
				out, in = dirs[ei].ab, dirs[ei].ba
			} else {
				out, in = dirs[ei].ba, dirs[ei].ab
			}
			depth := p.Sys.LinkBufferPackets
			if l := scen.Links[ei]; l.BufferPackets != nil {
				depth = *l.BufferPackets
			}
			idx := r.AttachPort(newBuf(depth, in), out)
			in.SetReceiver(r.Receiver(idx))
		}
	}

	// Host wiring: the host's single link.
	hostEdgeIdx := g.EdgeIndex(packet.HostNode, 0)
	he := g.Edges[hostEdgeIdx]
	var hostOut, hostIn *link.Direction
	if he.A == packet.HostNode {
		hostOut, hostIn = dirs[hostEdgeIdx].ab, dirs[hostEdgeIdx].ba
	} else {
		hostOut, hostIn = dirs[hostEdgeIdx].ba, dirs[hostEdgeIdx].ab
	}
	hostPort.Attach(hostOut)
	if spans != nil {
		hostPort.SetSpanHook(func(pk *packet.Packet, wait sim.Time) {
			spans.Start(pk, eng.Now(), wait)
		})
	}
	inst.hostIn = hostIn
	hostIn.SetReceiver((*hostSide)(inst))

	// Vault quadrants behind every cube.
	intLink := link.Config{
		BandwidthBps:  p.Sys.LinkBandwidthBps() * int64(p.Tuning.InternalBandwidthX),
		SerDesLatency: 0,
		QueueDepth:    p.Tuning.VaultQueueDepth,
		Credits:       p.Tuning.VaultQueueDepth,
		CountHop:      false,
	}
	for _, n := range g.Nodes {
		if n.Kind != topology.Cube {
			continue
		}
		r := inst.nodes[n.ID].router
		node := n.ID
		inflight := p.Tuning.VaultMaxInflight
		if n.Tech == config.NVM && p.Tuning.NVMMaxInflight > 0 {
			inflight = p.Tuning.NVMMaxInflight
		}
		first := len(quadSlab)
		for qi := 0; qi < p.Sys.Quadrants; qi++ {
			toQuad, fromQuad := newDir(intLink), newDir(intLink)
			q := take(&quadSlab)
			q.Init(eng, vault.Config{
				Tech:        n.Tech,
				Index:       qi,
				ExtPorts:    inst.nodes[node].extDeg,
				Penalty:     p.Sys.WrongQuadrantPenalty,
				Banks:       nBanks,
				MaxInflight: inflight,
				Meter:       meter,
			}, bankSlab[:nBanks:nBanks], &inst.timing[n.Tech])
			q.SetBankMapper(mapper)
			q.SetReturnPath(&inst.nodes[node])
			bankSlab = bankSlab[nBanks:]
			q.Attach(newBuf(p.Tuning.VaultQueueDepth, toQuad), fromQuad)
			toQuad.SetReceiver(q)

			idx := r.AttachPort(newBuf(p.Tuning.VaultQueueDepth, fromQuad), toQuad)
			fromQuad.SetReceiver(r.Receiver(idx))
			if spans != nil {
				bindShip(toQuad, fmt.Sprintf("%d>q%d", node, qi))
				bindShip(fromQuad, fmt.Sprintf("q%d>%d", qi, node))
				label := fmt.Sprintf("v%d.q%d", node, qi)
				q.OnIssue = func(pk *packet.Packet, wait sim.Time) {
					spans.VaultIssue(pk, label, eng.Now(), wait)
				}
			}
		}
		inst.nodes[n.ID].quads = quadSlab[first:len(quadSlab):len(quadSlab)]
	}

	inst.Spans = spans

	// Arm the resilience machinery last so a disabled Fault config adds
	// zero events and the golden determinism fingerprints stay intact.
	if faultOn {
		for i, ev := range inst.planEvents {
			i := i
			if ev.Kind == fault.EvRepairLink {
				// The retraining window opens at the repair instant; the
				// route-back and credit re-arm fire at ev.At when it
				// closes (applyFault's EvRepairLink arm).
				edge := ev.Edge
				eng.At(ev.Start, func() {
					inst.dirs[edge].ab.BeginRetrain()
					inst.dirs[edge].ba.BeginRetrain()
				})
			}
			eng.At(ev.At, func() { inst.applyFault(i) })
		}
		inst.Watchdog = sim.NewWatchdog(eng,
			p.Fault.WatchdogInterval, p.Fault.WatchdogStale,
			collector.Completed,
			func() bool { return hostPort.Inflight() > 0 })
		inst.Watchdog.Arm()
	}

	// Arm telemetry after the network is fully wired (every router port
	// attached) so registration order — and therefore every export — is
	// a pure function of the topology.
	if p.Obs.On() {
		buildTelemetry(inst, p.Obs)
	}

	// Prime the injection process.
	eng.ScheduleArg(0, kickHost, hostPort)
	return inst, nil
}

// switchPair is a router and its arbiter, laid out together in a
// build's slab.
type switchPair struct {
	router router.Router
	arb    arb.Arbiter
}

// kickHost is the event that primes a run's injection; its argument is
// the host port. Unlike the method value hostPort.Kick, it allocates
// nothing.
func kickHost(port any) { port.(*host.Port).Kick() }

// take extends slab by one element within its capacity and returns it;
// it panics if the slab is full, which is a miscount.
func take[T any](slab *[]T) *T {
	*slab = (*slab)[:len(*slab)+1]
	return &(*slab)[len(*slab)-1]
}

// planFaults validates the scheduled faults and repairs against the
// built topology and precomputes, per event, the routing graph in
// force after it and (for cube kills) the re-home spare. Walks the
// schedule in time order carrying the cumulative dead set, exactly as
// applyFault will at runtime — a link repair's slot in the walk is its
// effective link-up instant (retraining end), so the cumulative order
// here equals the order routing actually changes mid-run.
func (in *Instance) planFaults() error {
	evs, err := in.Params.Fault.Build()
	if err != nil {
		return err
	}
	in.planEvents = evs
	in.planGraphs = make([]*topology.Graph, len(evs))
	in.planSpares = make([]packet.NodeID, len(evs))

	cur := in.Graph
	deadCubes := make(map[packet.NodeID]bool)
	fullDead := make(map[packet.NodeID]bool)
	for i, ev := range evs {
		switch ev.Kind {
		case fault.EvLaneFail, fault.EvLaneRepair:
			if ev.Edge >= len(in.Graph.Edges) {
				return fmt.Errorf("core: lane fault on nonexistent edge %d", ev.Edge)
			}
			// Bandwidth changes; routing is untouched.
		case fault.EvKillLink:
			if ev.Edge >= len(in.Graph.Edges) {
				return fmt.Errorf("core: kill of nonexistent edge %d", ev.Edge)
			}
			ng, err := cur.Disable([]int{ev.Edge}, nil)
			if err != nil {
				e := in.Graph.Edges[ev.Edge]
				return fmt.Errorf("core: killing link %d (%d-%d) at %v: %w",
					ev.Edge, e.A, e.B, ev.At, err)
			}
			cur, in.planGraphs[i] = ng, ng
		case fault.EvRepairLink:
			if ev.Edge >= len(in.Graph.Edges) {
				return fmt.Errorf("core: repair of nonexistent edge %d", ev.Edge)
			}
			ng, err := cur.Enable([]int{ev.Edge}, nil)
			if err != nil {
				return fmt.Errorf("core: repairing link %d at %v: %w", ev.Edge, ev.At, err)
			}
			cur, in.planGraphs[i] = ng, ng
		case fault.EvKillCube:
			if int(ev.Node) >= len(in.Graph.Nodes) ||
				in.Graph.Nodes[ev.Node].Kind != topology.Cube {
				return fmt.Errorf("core: kill target %d is not a memory cube", ev.Node)
			}
			if deadCubes[ev.Node] {
				return fmt.Errorf("core: cube %d killed twice", ev.Node)
			}
			if ev.Full {
				// The whole package dies: no transit either. Only
				// redundant topologies survive this; Disable rejects the
				// rest.
				ng, err := cur.Disable(nil, []packet.NodeID{ev.Node})
				if err != nil {
					return fmt.Errorf("core: full kill of cube %d at %v: %w",
						ev.Node, ev.At, err)
				}
				cur, in.planGraphs[i] = ng, ng
				fullDead[ev.Node] = true
			}
			deadCubes[ev.Node] = true
			spare, err := nearestSurvivor(cur, ev.Node, deadCubes)
			if err != nil {
				return fmt.Errorf("core: killing cube %d at %v: %w", ev.Node, ev.At, err)
			}
			in.planSpares[i] = spare
		case fault.EvRepairCube:
			if !deadCubes[ev.Node] {
				return fmt.Errorf("core: repair of cube %d at %v, which is not dead", ev.Node, ev.At)
			}
			if fullDead[ev.Node] {
				ng, err := cur.Enable(nil, []packet.NodeID{ev.Node})
				if err != nil {
					return fmt.Errorf("core: repairing cube %d at %v: %w", ev.Node, ev.At, err)
				}
				cur, in.planGraphs[i] = ng, ng
				delete(fullDead, ev.Node)
			}
			// The cube is a kill candidate and a re-home target again;
			// victims re-homed elsewhere keep their existing spares
			// (repair restores only this cube's own address range).
			delete(deadCubes, ev.Node)
		}
	}
	return nil
}

// nearestSurvivor picks the deterministic re-home target for a dead
// cube: the surviving cube nearest to it on the degraded graph, ties
// broken toward the lowest node ID.
func nearestSurvivor(g *topology.Graph, victim packet.NodeID, dead map[packet.NodeID]bool) (packet.NodeID, error) {
	best, bestDist := packet.NodeID(-1), -1
	for _, id := range g.CubeIDs() {
		if dead[id] {
			continue
		}
		d := g.Dist(topology.PathShort, victim, id)
		if d < 0 {
			continue
		}
		if bestDist < 0 || d < bestDist {
			best, bestDist = id, d
		}
	}
	if best < 0 {
		return 0, fmt.Errorf("no surviving cube to re-home onto")
	}
	return best, nil
}

// applyFault fires scheduled fault or repair i at its simulated time:
// swap in the precomputed route tables, kill, degrade, or restore the
// hardware, update the re-home map, and kick every router so stranded
// heads re-arbitrate under the new tables.
func (in *Instance) applyFault(i int) {
	ev := in.planEvents[i]
	switch ev.Kind {
	case fault.EvLaneFail:
		in.dirs[ev.Edge].ab.Downbind()
		in.dirs[ev.Edge].ba.Downbind()
		in.fc.LaneFails++
		return // no routing change, no kicks needed
	case fault.EvLaneRepair:
		in.dirs[ev.Edge].ab.Rebind()
		in.dirs[ev.Edge].ba.Rebind()
		in.fc.LaneRepairs++
		return // bandwidth-only, like the flap down
	case fault.EvRepairLink:
		// Routes swap back first, so the retrained directions' space
		// callbacks and the kicks below route onto the healed edge.
		in.live = in.planGraphs[i]
		in.dirs[ev.Edge].ab.CompleteRetrain()
		in.dirs[ev.Edge].ba.CompleteRetrain()
		in.fc.LinksRepaired++
	case fault.EvRepairCube:
		if g := in.planGraphs[i]; g != nil {
			in.live = g
		}
		// New injections target the repaired cube again; packets
		// already bounced to the spare complete there.
		if c := &in.nodes[ev.Node]; c.rehomed {
			c.rehomed = false
			in.rehomed--
		}
		in.fc.CubesRepaired++
	case fault.EvKillLink:
		in.live = in.planGraphs[i]
		e := in.Graph.Edges[ev.Edge]
		// Drain each direction's queued and retrying packets back into
		// the router at its sending end for re-routing. The host edge
		// cannot be killed (it always disconnects), so both ends route.
		ra, rb := in.nodes[e.A].router, in.nodes[e.B].router
		in.dirs[ev.Edge].ab.Fail(func(p *packet.Packet) { ra.Reinject(p) })
		in.dirs[ev.Edge].ba.Fail(func(p *packet.Packet) { rb.Reinject(p) })
		in.fc.LinksKilled++
	case fault.EvKillCube:
		if g := in.planGraphs[i]; g != nil {
			in.live = g
		}
		spare := in.planSpares[i]
		// Collapse chains: victims previously re-homed onto this cube
		// move with it, so lookups stay single-level. The sweep runs in
		// node order.
		for j := range in.nodes {
			if c := &in.nodes[j]; c.rehomed && c.spare == ev.Node {
				c.spare = spare
			}
		}
		c := &in.nodes[ev.Node]
		c.rehomed, c.spare = true, spare
		in.rehomed++
		in.fc.CubesKilled++
	}
	// Kick in deterministic node order: sweep scheduling order is part
	// of the reproducibility guarantee for faulty runs. The route tables
	// or the re-home spares changed, so every head is routed again.
	for _, n := range in.Graph.Nodes {
		if r := in.nodes[n.ID].router; r != nil {
			r.InvalidateRoutes()
			r.Kick()
		}
	}
}

// techBias is the augmented arbitration's per-node technology bias for
// nodes 0 to n-1: techBiasHops for a node the mapper places on NVM, 0
// for every other node.
func techBias(m *addr.Mapper, n int, sys *config.System) []int64 {
	hops := techBiasHops(sys)
	b := make([]int64, n)
	for id := range b {
		if m.Tech(packet.NodeID(id)) == config.NVM {
			b[id] = hops
		}
	}
	return b
}

// techBiasHops converts the NVM-vs-DRAM read latency gap into
// hop-equivalents for the augmented arbitration weight, following the
// paper's empirical tuning "using both average network hop latency and
// average memory access latency for each cube technology type" (§5.3).
func techBiasHops(sys *config.System) int64 {
	dr := sys.DRAMTiming.TRCD + sys.DRAMTiming.TCL
	nv := sys.NVMTiming.TRCD + sys.NVMTiming.TCL
	hop := sys.SerDesLatency + sim.BitTime(packet.DataBits, sys.LinkBandwidthBps())
	if hop <= 0 {
		return 0
	}
	b := int64((nv - dr) / hop)
	if b < 0 {
		b = 0
	}
	return b
}

// Results summarizes a completed run.
type Results struct {
	// Label is the paper-style configuration name (e.g. "50%-SL (NVM-L)").
	Label string
	// Workload names the traffic proxy that drove the run.
	Workload string
	// FinishTime is when the last transaction completed — the
	// execution-time metric behind every speedup in the paper.
	FinishTime sim.Time
	// MeanLatency is the average end-to-end transaction latency.
	MeanLatency sim.Time
	// Breakdown splits MeanLatency into to-memory / in-memory /
	// from-memory components (Fig. 5).
	Breakdown stats.Breakdown
	// Energy is the dynamic-energy account (Fig. 15).
	Energy energy.Breakdown
	// Transactions, Reads, and Writes count completed operations.
	Transactions uint64
	Reads        uint64
	Writes       uint64
	// MeanHops is the average response-path hop count (requests take a
	// symmetric path except for skip-list writes).
	MeanHops float64
	// Events is the number of simulation events executed (a cost and
	// determinism fingerprint).
	Events uint64
	// Fault aggregates the resilience layer's counters; all-zero when
	// fault injection is disabled.
	Fault stats.FaultCounters
}

// Run executes the instance until the host completes its trace. It
// returns an error if the simulation deadlocks (event queue drains
// early) or exceeds the safety horizon.
func (in *Instance) Run() (Results, error) {
	const horizon = 10 * sim.Second
	progressed := in.Eng.RunWhile(func() bool {
		if in.Eng.Now() > horizon {
			return false
		}
		if in.Watchdog != nil && in.Watchdog.Tripped() {
			return false
		}
		return !in.Port.Done()
	})
	if in.Watchdog != nil && in.Watchdog.Tripped() {
		return Results{}, fmt.Errorf(
			"core: watchdog: no forward progress over %v with packets in flight in %s/%s (%d/%d transactions at %v)\n%s",
			sim.Time(in.Params.Fault.WatchdogStale)*in.Params.Fault.WatchdogInterval,
			in.Params.Label(), in.Params.Workload.Name,
			in.Collector.Completed(), in.Params.Transactions, in.Eng.Now(),
			in.WedgeDump())
	}
	if !progressed && !in.Port.Done() {
		return Results{}, fmt.Errorf(
			"core: deadlock in %s/%s: %d/%d transactions after %v",
			in.Params.Label(), in.Params.Workload.Name,
			in.Collector.Completed(), in.Params.Transactions, in.Eng.Now())
	}
	if !in.Port.Done() {
		return Results{}, fmt.Errorf("core: horizon exceeded in %s/%s",
			in.Params.Label(), in.Params.Workload.Name)
	}
	return Results{
		Label:        in.Params.Label(),
		Workload:     in.Params.Workload.Name,
		FinishTime:   in.Collector.FinishTime(),
		MeanLatency:  in.Collector.MeanLatency(),
		Breakdown:    in.Collector.MeanBreakdown(),
		Energy:       in.Meter.Report(),
		Transactions: in.Collector.Completed(),
		Reads:        in.Collector.Reads(),
		Writes:       in.Collector.Writes(),
		MeanHops:     in.Collector.MeanHops(),
		Events:       in.Eng.Fired(),
		Fault:        in.FaultCounters(),
	}, nil
}

// FaultCounters aggregates the run's resilience counters from the core
// bookkeeping, every external link direction, and every router.
func (in *Instance) FaultCounters() stats.FaultCounters {
	fc := in.fc
	for _, d := range in.dirs {
		for _, dir := range [2]*link.Direction{d.ab, d.ba} {
			s := dir.Stats()
			fc.CRCErrors += s.CRCErrors
			fc.Retries += s.Retries
			fc.Dropped += s.Dropped
			fc.HealedBits += dir.HealedBits()
		}
	}
	for _, n := range in.Graph.Nodes {
		if r := in.nodes[n.ID].router; r != nil {
			fc.Rerouted += r.Rerouted
		}
	}
	return fc
}

// Simulate is the one-call convenience: build and run.
func Simulate(p Params) (Results, error) {
	in, err := Build(p)
	if err != nil {
		return Results{}, err
	}
	return in.Run()
}
