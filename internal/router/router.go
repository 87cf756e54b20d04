// Package router implements the switch on a memory cube's logic die (and
// on a MetaCube's interface chip): input-buffered ports, per-output
// arbitration over the input queues, and table-driven routing.
//
// The arbitration point here is exactly where the paper's fairness
// analysis applies: each output port independently selects among the
// input queues holding a head packet bound for it. With the baseline
// locally-fair round-robin, a cube whose four local vault queues compete
// against a single upstream queue services local traffic 80% of the time
// — the "parking lot problem" (§3.2) — which the distance-based policy
// (§4.1) corrects.
package router

import (
	"fmt"
	"math/bits"

	"memnet/internal/arb"
	"memnet/internal/link"
	"memnet/internal/packet"
	"memnet/internal/sim"
)

// Routing chooses the output port a packet leaves through at this
// router. It encapsulates the topology's next-hop tables, the
// read/write path differentiation of the skip list, and local-quadrant
// delivery for packets that have reached their destination cube.
//
// A Routing must be pure between invalidations: the router routes each
// input head once, when it becomes the head, and keeps the answer until
// InvalidateRoutes (or SetRouting) asks for every head to be routed
// again. Whoever changes what Route returns — a fault swapping the
// route tables — must invalidate. Route may rewrite the packet it
// routes (core's re-home bounce), as long as a second call then returns
// the same port. Salvaged packets (Reinject) are routed afresh on every
// sweep.
type Routing interface {
	Route(p *packet.Packet) int
}

// RouteFunc adapts a function to a Routing.
type RouteFunc func(p *packet.Packet) int

// Route implements Routing.
func (f RouteFunc) Route(p *packet.Packet) int { return f(p) }

// Router is an input-buffered switch with N ports. Port i consists of an
// input buffer (filled by the neighbor's link direction toward us) and
// an output direction (toward the same neighbor). "Neighbors" include
// the cube's own vault quadrants, which occupy the highest port indices.
//
// The router models the cube's centralized switch (§5: "each memory
// package contains a centralized switch") with finite internal
// bandwidth: every packet movement from an input buffer to an output
// queue occupies the crossbar for its serialization time at the switch
// rate. On heavily-transited cubes (every cube of a chain, the root of
// any topology) the crossbar is the contention point where response
// priority delays requests and where the arbitration policy decides who
// ages in the input queues.
type Router struct {
	eng  *sim.Engine
	node packet.NodeID

	retryArmed   bool
	sweepPending bool
	// routed is set while rs is laid out for the attached ports.
	routed bool

	route  Routing
	policy arb.Policy

	// ports are the router's ports, each its input buffer, its output
	// direction and what their links see of it (see port).
	ports []port
	// rs holds the routed and unrouted input heads across sweeps.
	rs routeState
	// cand and heads carry one output's candidates to the arbiter. A
	// build's routers share them (see Slab).
	cand  []int
	heads []*packet.Packet

	crossbar   sim.Resource
	switchBps  int64
	sweepStart int
	// retry is the crossbar retry deferred when nothing is routed or
	// waiting to be routed and no salvaged packet waits: fired
	// untouched, its sweep would only clear retryArmed and rotate the
	// scan (the crossbar is idle again at its instant).
	retry sim.Wakeup

	// reroutes holds packets handed back by a failed output link
	// (link.Direction.Fail drains into Reinject); they re-enter the
	// network through the recomputed route tables at the next sweep.
	reroutes []*packet.Packet

	// Forwarded counts packets moved input->output, per VC.
	Forwarded [packet.NumVCs]uint64
	// Contended counts arbitration decisions with more than one
	// candidate input (where the policy actually matters).
	Contended uint64
	// Rerouted counts packets salvaged off a dead link and re-sent on a
	// route-around path.
	Rerouted uint64

	// GrantCounts, when non-nil, counts arbitration grants per input
	// port (telemetry; sized to NumPorts by the observer that arms it).
	// It exposes which sources actually win the crossbar — the raw
	// signal behind the paper's parking-lot unfairness.
	GrantCounts []uint64

	// OnForward, when non-nil, observes every arbitration grant with the
	// granted packet, its input port, and its input-buffer residence
	// (arbitration wait plus crossbar contention). The span tracer arms
	// it; nil keeps the drain loop hook-free.
	OnForward func(p *packet.Packet, port int, wait sim.Time)
}

// port is port i of a router: its input buffer, its output direction,
// and, as its links see it, the Receiver of the direction into the port
// and the SpaceListener of the direction out of it. It never changes
// after AttachPort, so a pointer handed out stays valid when append
// moves a router's ports to a larger array.
type port struct {
	r   *Router
	in  *link.Buffer
	out *link.Direction
	i   int
}

// Receive is the arrival entry point of the port. Packets must enter
// the input buffer through it once the router has swept: it is how the
// router learns of a new head to route.
func (pt *port) Receive(p *packet.Packet) {
	r := pt.r
	p.EnterPort = int8(pt.i)
	if vc := packet.VCOf(p.Kind); pt.in.Len(vc) == 0 {
		r.touch()
		if r.routed {
			r.rs.markDirty(pt.i, vc)
		}
	}
	pt.in.Push(p, r.eng.Now())
	r.Kick()
}

// OnSpace kicks a sweep when the port's output frees a slot.
func (pt *port) OnSpace(packet.VC) { pt.r.Kick() }

// Slab is the port storage of a network's routers, sized by their real
// port counts. A store Slab keeps the arrays from network to network;
// its Fit returns the Slab a network's routers Reserve from. Each router
// given storage by Reserve takes its ports and route masks from one
// backing array each, and all of them share one candidate scratch: a
// sweep runs to completion before any other starts. A router given no
// storage (New) allocates its own as its ports are attached and at its
// first sweep.
type Slab struct {
	ports []port
	masks []uint64
	cand  []int
	heads []*packet.Packet
}

// Fit returns storage for the given number of routers, whose port
// counts sum to ports and the widest of which has width ports, from the
// arrays of s, a store that outlives the routers it serves. Each array
// of s that is large enough is reused and each that is not is replaced
// by a new one of exactly the size needed, so the zero Slab allocates
// what the storage takes. Route masks are sized for width, so they fit
// exactly when no router has more than 64 ports. Every array handed out
// is cut to its size, so Reserve still panics on a miscount. The arrays
// must be zero: new, or cleared by Clear.
func (s *Slab) Fit(routers, ports, width int) Slab {
	m := int(packet.NumVCs) * (ports + routers) * maskWords(width)
	if cap(s.ports) < ports {
		s.ports = make([]port, ports)
	}
	if cap(s.masks) < m {
		s.masks = make([]uint64, m)
	}
	if cap(s.cand) < width {
		s.cand, s.heads = make([]int, width), make([]*packet.Packet, width)
	}
	s.ports, s.masks, s.cand, s.heads = s.ports[:ports], s.masks[:m], s.cand[:width], s.heads[:width]
	return Slab{ports: s.ports[:0:ports], masks: s.masks[:m:m], cand: s.cand[:width:width], heads: s.heads[:width:width]}
}

// Clear zeroes the storage that the last Fit of s handed out, so that a
// store whose routers are done holds no pointer into their network and
// can be fitted again. No router given storage from it may be used
// afterwards.
func (s *Slab) Clear() {
	clear(s.ports)
	clear(s.masks)
	clear(s.cand)
	clear(s.heads)
}

// maskWords is the number of uint64 words a bitmask over n inputs takes.
func maskWords(n int) int { return (n + 63) / 64 }

// maskLen is the number of route-mask words of a router of n ports: per
// VC, one candidate mask per output and one dirty mask.
func maskLen(n int) int { return int(packet.NumVCs) * (n + 1) * maskWords(n) }

// Reserve gives r, initialized and with no port attached yet, storage
// for n ports from s; it panics if s has too little left, which is a
// miscount. Attaching more than n ports still works, at the cost of the
// allocations of a router given no storage.
func (r *Router) Reserve(s *Slab, n int) {
	if len(r.ports) > 0 || r.rs.masks != nil {
		panic(fmt.Sprintf("router %d: storage reserved after ports or twice", r.node))
	}
	k := len(s.ports)
	r.ports = s.ports[k : k : k+n]
	s.ports = s.ports[:k+n]
	m := maskLen(n)
	r.rs.masks, s.masks = s.masks[:m:m], s.masks[m:]
	r.cand, r.heads = s.cand, s.heads
}

// New creates a router shell; ports are attached afterwards with
// AttachPort. switchBps is the centralized switch's internal bandwidth
// (0 disables crossbar modeling, giving an ideal switch).
func New(eng *sim.Engine, node packet.NodeID, policy arb.Policy, switchBps int64) *Router {
	r := new(Router)
	r.Init(eng, node, policy, switchBps)
	return r
}

// Init makes the zero Router r a router shell, as New does, so that a
// network can lay out all its routers in one slice. It panics if r was
// already initialized: r's retry wakeup is linked into eng.
func (r *Router) Init(eng *sim.Engine, node packet.NodeID, policy arb.Policy, switchBps int64) {
	if r.eng != nil {
		panic(fmt.Sprintf("router %d: initialized twice", r.node))
	}
	r.eng, r.node, r.policy, r.switchBps = eng, node, policy, switchBps
	r.retry.Init(eng)
}

// sweepEvent is every router's sweep scheduled by Kick; its argument
// is the Router.
func sweepEvent(arg any) {
	r := arg.(*Router)
	r.sweepPending = false
	r.sweep()
}

// retryEvent is every router's crossbar retry; its argument is the
// Router.
func retryEvent(arg any) {
	r := arg.(*Router)
	r.retryArmed = false
	r.sweep()
}

// SetRouting installs the routing and invalidates every route taken so
// far.
func (r *Router) SetRouting(rt Routing) {
	r.route = rt
	if r.routed {
		r.InvalidateRoutes()
	}
}

// SetRoute is SetRouting with a function.
func (r *Router) SetRoute(fn RouteFunc) { r.SetRouting(fn) }

// InvalidateRoutes has every input head routed again at the next
// sweep. Call it whenever the route function's answers change.
func (r *Router) InvalidateRoutes() {
	r.touch()
	if r.routed {
		r.rs.reset(r.ports)
	}
}

// Node reports the router's node ID.
func (r *Router) Node() packet.NodeID { return r.node }

// NumPorts reports the attached port count.
func (r *Router) NumPorts() int { return len(r.ports) }

// AttachPort adds a port and returns its index. in receives packets from
// the neighbor; out sends toward the neighbor. The router registers
// itself as out's space listener. Ports are attached before traffic
// flows; the route state is built for the final port count at the
// first sweep.
func (r *Router) AttachPort(in *link.Buffer, out *link.Direction) int {
	r.routed = false
	idx := len(r.ports)
	r.ports = append(r.ports, port{r: r, in: in, out: out, i: idx})
	out.SetSpaceListener(&r.ports[idx])
	return idx
}

// Receiver is the arrival entry point for port i; wire it as the
// receiver of the neighbor's direction toward this router. Packets
// must enter the input buffer through it once the router has swept: it
// is how the router learns of a new head to route.
func (r *Router) Receiver(i int) link.Receiver { return &r.ports[i] }

// Deliver is Receiver(i) as a function.
func (r *Router) Deliver(i int) func(*packet.Packet) { return r.Receiver(i).Receive }

// InputBuffer exposes port i's input buffer (for wiring and stats).
func (r *Router) InputBuffer(i int) *link.Buffer { return r.ports[i].in }

// Output exposes port i's output direction (for wiring and stats).
func (r *Router) Output(i int) *link.Direction { return r.ports[i].out }

// Reinject hands the router a packet salvaged from a failed output link
// (or bounced off a dead neighbor). The packet waits in a side queue and
// leaves through whatever port the current route tables choose — which,
// after a fault swap, is the route-around path.
func (r *Router) Reinject(p *packet.Packet) {
	r.touch()
	r.reroutes = append(r.reroutes, p)
	r.Kick()
}

// RerouteBacklog reports how many salvaged packets still await a free
// output (for the wedge diagnostic dump).
func (r *Router) RerouteBacklog() int { return len(r.reroutes) }

// Kick schedules a forwarding sweep at the current instant (idempotent
// per instant).
func (r *Router) Kick() {
	if r.sweepPending {
		return
	}
	r.sweepPending = true
	r.eng.ScheduleArg(0, sweepEvent, r)
}

// routeState is what lets each input head be routed once, however many
// sweeps it waits through, and a sweep forward without allocating. A
// head is unrouted when a port's Receive pushes it onto an empty FIFO
// or a grant's pop exposes it, and every head is after
// InvalidateRoutes.
//
// masks holds, per VC, n+1 bitmasks of words uint64s each, vc's at
// offset vc*(n+1)*words, for the n ports the state was laid out for.
// Mask o < n is output o's candidates: bit i is set when input i's vc
// head routes to o. Mask n is vc's dirty mask: it marks the inputs
// whose vc head is not yet routed (ndirty[vc] of them); they are
// routed, in ascending input order, at a sweep's first candidate scan
// of vc — where a rescan of every head would first route them. live[vc]
// counts the set bits of all outputs.
type routeState struct {
	masks  []uint64
	n      int32
	words  int32
	live   [packet.NumVCs]int32
	ndirty [packet.NumVCs]int32
}

// mask returns the words of mask o of vc: output o's candidates, or
// vc's dirty mask for o == n.
func (rs *routeState) mask(vc packet.VC, o int) []uint64 {
	k := (int(vc)*(int(rs.n)+1) + o) * int(rs.words)
	return rs.masks[k : k+int(rs.words)]
}

// bit returns the word of mask o of vc holding input i's bit, and the
// bit.
func (rs *routeState) bit(vc packet.VC, o, i int) (*uint64, uint64) {
	return &rs.masks[(int(vc)*(int(rs.n)+1)+o)*int(rs.words)+i/64], 1 << (i % 64)
}

// routing lays the route state out for the attached ports if it is not,
// marking every input head unrouted. Storage from Reserve fits; a
// router given none, or attached past it, allocates here.
func (r *Router) routing() {
	if r.routed {
		return
	}
	n := len(r.ports)
	rs := &r.rs
	rs.n, rs.words = int32(n), int32(maskWords(n))
	if m := maskLen(n); len(rs.masks) < m {
		rs.masks = make([]uint64, m)
	}
	if len(r.cand) < n {
		r.cand, r.heads = make([]int, n), make([]*packet.Packet, n)
	}
	rs.reset(r.ports)
	r.routed = true
	if ps, ok := r.policy.(portSizer); ok {
		ps.SetPorts(n)
	}
}

// portSizer is a Policy that sizes its state from the router's port
// count, once the ports are attached.
type portSizer interface {
	SetPorts(n int)
}

// reset forgets every route and marks every input head unrouted.
func (rs *routeState) reset(ports []port) {
	clear(rs.masks)
	rs.live, rs.ndirty = [packet.NumVCs]int32{}, [packet.NumVCs]int32{}
	for i := range ports {
		for vc := packet.VC(0); vc < packet.NumVCs; vc++ {
			if ports[i].in.Len(vc) > 0 {
				rs.markDirty(i, vc)
			}
		}
	}
}

// markDirty marks input i's vc head as waiting to be routed.
func (rs *routeState) markDirty(i int, vc packet.VC) {
	if w, bit := rs.bit(vc, int(rs.n), i); *w&bit == 0 {
		*w |= bit
		rs.ndirty[vc]++
	}
}

// idle reports that no input head is routed to an output or waiting to
// be routed.
func (rs *routeState) idle() bool {
	return rs.live[packet.VCRequest]+rs.live[packet.VCResponse]+
		rs.ndirty[packet.VCRequest]+rs.ndirty[packet.VCResponse] == 0
}

// settle applies a lapsed retry's outcome: its sweep would have found
// nothing routed on an idle crossbar, so it only cleared retryArmed and
// rotated the scan.
func (r *Router) settle() {
	if r.retry.Lapsed() {
		r.retryArmed = false
		r.sweepStart++
	}
}

// touch settles the retry before work is added: a retry still deferred
// is committed, since its sweep may now have something to do.
func (r *Router) touch() {
	r.settle()
	if r.retry.Deferred() {
		r.retry.Commit(retryEvent, r)
	}
}

// sweep moves as many packets as buffers, credits, crossbar bandwidth,
// and arbitration allow. All outputs' response traffic is considered
// before any request traffic, matching the deadlock-avoidance priority:
// under switch contention this is precisely what backs requests up
// behind responses (§3.2). The output scan order rotates between sweeps
// so no port is structurally favored within a priority class.
func (r *Router) sweep() {
	if r.route == nil {
		panic(fmt.Sprintf("router %d: no routing", r.node))
	}
	r.settle()
	r.drainReroutes()
	r.routing()
	n := len(r.ports)
	for _, vc := range [...]packet.VC{packet.VCResponse, packet.VCRequest} {
		o := r.sweepStart % n
		for k := 0; k < n; k++ {
			if !r.drain(o, vc) {
				return // crossbar busy; retry armed
			}
			if r.exhausted(vc) {
				break
			}
			if o++; o == n {
				o = 0
			}
		}
	}
	r.sweepStart++
}

// exhausted reports that the rest of a vc pass can forward nothing and
// change nothing: no vc head is routed to an output or waiting to be
// routed, and the crossbar is idle — so no later output of the pass
// could find a candidate or abort on a busy crossbar. With nothing
// routed or waiting at all and an idle crossbar, a sweep is thus O(1):
// one scan per VC, then the rotation.
func (r *Router) exhausted(vc packet.VC) bool {
	rs := &r.rs
	return rs.live[vc] == 0 && rs.ndirty[vc] == 0 &&
		(r.switchBps == 0 || r.crossbar.Idle(r.eng.Now()))
}

// drain forwards packets from eligible input heads to output o, vc,
// until space, candidates, credits, or switch bandwidth run out. It
// returns false when the crossbar is busy (a retry has been armed).
func (r *Router) drain(o int, vc packet.VC) bool {
	out := r.ports[o].out
	for out.CanAccept(vc) {
		if r.switchBps > 0 && !r.crossbar.Idle(r.eng.Now()) {
			r.armRetry()
			return false
		}
		candidates := r.candidates(o, vc)
		if len(candidates) == 0 {
			return true
		}
		if len(candidates) > 1 {
			r.Contended++
		}
		pick := r.policy.Pick(o, vc, candidates, r.heads[:len(candidates)])
		in := r.ports[pick].in
		var since sim.Time
		if r.OnForward != nil {
			since = in.HeadSince(vc)
		}
		p := in.Pop(vc, r.eng.Now())
		rs := &r.rs
		w, bit := rs.bit(vc, o, pick)
		*w &^= bit
		rs.live[vc]--
		if in.Len(vc) > 0 {
			rs.markDirty(pick, vc)
		}
		r.Forwarded[vc]++
		if r.GrantCounts != nil {
			r.GrantCounts[pick]++
		}
		if r.OnForward != nil {
			r.OnForward(p, pick, r.eng.Now()-since)
		}
		if r.switchBps > 0 {
			r.crossbar.Reserve(r.eng.Now(), sim.BitTime(p.Kind.Bits(), r.switchBps))
		}
		out.Send(p)
	}
	return true
}

// candidates lists, in ascending order, the inputs whose vc head routes
// to output o, filling rs.heads to match. Heads waiting to be routed are
// routed first, at the same scan where a rescan of every head would
// first route them: a route function may rewrite the packet it routes
// (core's rehome bounce), so routing a head earlier than that would be
// visible. The entry port is a legal candidate: shortest-path tables
// never route a packet back out the port it entered, but after a
// mid-run fault swap a packet caught traveling toward a dead link must
// U-turn.
func (r *Router) candidates(o int, vc packet.VC) []int {
	rs := &r.rs
	if rs.ndirty[vc] > 0 {
		dirty := rs.mask(vc, int(rs.n))
		for w, mask := range dirty {
			dirty[w] = 0
			for ; mask != 0; mask &= mask - 1 {
				r.routeHead(w*64+bits.TrailingZeros64(mask), vc)
			}
		}
		rs.ndirty[vc] = 0
	}
	cand := r.cand[:0]
	for w, mask := range rs.mask(vc, o) {
		for ; mask != 0; mask &= mask - 1 {
			i := w*64 + bits.TrailingZeros64(mask)
			r.heads[len(cand)] = r.ports[i].in.Head(vc)
			cand = append(cand, i)
		}
	}
	return cand
}

// routeHead routes input i's vc head, if any, into the candidate mask of
// its output. A route outside the port range matches no output: the
// head stays put until the routes are invalidated.
func (r *Router) routeHead(i int, vc packet.VC) {
	head := r.ports[i].in.Head(vc)
	if head == nil {
		return
	}
	if o := r.route.Route(head); o >= 0 && o < len(r.ports) {
		w, bit := r.rs.bit(vc, o, i)
		*w |= bit
		r.rs.live[vc]++
	}
}

// drainReroutes re-sends salvaged packets through the current route
// tables, ahead of regular arbitration (they already paid their queuing
// dues on the dead link). Packets that find no output space stay queued;
// output OnSpace callbacks re-kick the sweep.
func (r *Router) drainReroutes() {
	if len(r.reroutes) == 0 {
		return
	}
	kept := r.reroutes[:0]
	for _, p := range r.reroutes {
		o := r.route.Route(p)
		vc := packet.VCOf(p.Kind)
		if o >= 0 && r.ports[o].out.CanAccept(vc) {
			r.Rerouted++
			r.ports[o].out.Send(p)
		} else {
			kept = append(kept, p)
		}
	}
	r.reroutes = kept
}

// armRetry schedules a sweep for the instant the crossbar frees. With
// nothing routed, waiting to be routed or salvaged, that sweep is
// deferred: until work arrives (a port's Receive of a new head,
// Reinject and InvalidateRoutes all touch the retry) it would only
// clear retryArmed and rotate the scan.
func (r *Router) armRetry() {
	if r.retryArmed {
		return
	}
	r.retryArmed = true
	if r.rs.idle() && len(r.reroutes) == 0 {
		r.retry.Defer(r.crossbar.FreeAt())
		return
	}
	r.eng.AtArg(r.crossbar.FreeAt(), retryEvent, r)
}

// TotalInputWait sums the input-buffer residency across ports — the
// per-router queuing metric of the §3.2 analysis.
func (r *Router) TotalInputWait() sim.Time {
	var t sim.Time
	for i := range r.ports {
		t += r.ports[i].in.TotalWait()
	}
	return t
}
