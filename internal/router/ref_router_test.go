package router

import (
	"fmt"
	"math/bits"

	"memnet/internal/arb"
	"memnet/internal/link"
	"memnet/internal/packet"
	"memnet/internal/sim"
)

// refRouter is the router as it was before routes persisted across
// sweeps and the crossbar retry could be deferred: every sweep rescans
// every input head, and every retry is a queued event. FuzzRouterSweep
// drives it beside Router and requires the same behavior. Accessors and
// telemetry hooks the fuzz does not use are left out.
type refRouter struct {
	eng    *sim.Engine
	node   packet.NodeID
	route  RouteFunc
	policy arb.Policy

	in  []*link.Buffer
	out []*link.Direction

	crossbar   sim.Resource
	switchBps  int64
	retryArmed bool
	sweepStart int

	sweepPending bool
	// sweepFn and retryFn are bound once at construction; Kick and
	// armRetry fire constantly on the forwarding path, and a pre-built
	// handler keeps each of those schedules allocation-free.
	sweepFn sim.Handler
	retryFn sim.Handler
	// reroutes holds packets handed back by a failed output link
	// (link.Direction.Fail drains into Reinject); they re-enter the
	// network through the recomputed route tables at the next sweep.
	reroutes []*packet.Packet

	// sc is the forwarding sweep's scratch, allocated at the first sweep
	// (so building a router allocates no more than before) and reused by
	// every later one.
	sc *refScratch

	// Forwarded counts packets moved input->output, per VC.
	Forwarded [packet.NumVCs]uint64
	// Contended counts arbitration decisions with more than one
	// candidate input (where the policy actually matters).
	Contended uint64
	// Rerouted counts packets salvaged off a dead link and re-sent on a
	// route-around path.
	Rerouted uint64

	// OnForward, when non-nil, observes every arbitration grant with the
	// granted packet, its input port, and its input-buffer residence
	// (arbitration wait plus crossbar contention). The span tracer arms
	// it; nil keeps the drain loop hook-free.
	OnForward func(p *packet.Packet, port int, wait sim.Time)
}

// newRefRouter creates a router shell; ports are attached afterwards with
// AttachPort. switchBps is the centralized switch's internal bandwidth
// (0 disables crossbar modeling, giving an ideal switch).
func newRefRouter(eng *sim.Engine, node packet.NodeID, policy arb.Policy, switchBps int64) *refRouter {
	r := &refRouter{eng: eng, node: node, policy: policy, switchBps: switchBps}
	r.sweepFn = func() {
		r.sweepPending = false
		r.sweep()
	}
	r.retryFn = func() {
		r.retryArmed = false
		r.sweep()
	}
	return r
}

// SetRoute installs the routing function. Must be called before traffic
// flows.
func (r *refRouter) SetRoute(fn RouteFunc) { r.route = fn }

// AttachPort adds a port and returns its index. in receives packets from
// the neighbor; out sends toward the neighbor. The router registers
// itself for out's space-available callbacks.
func (r *refRouter) AttachPort(in *link.Buffer, out *link.Direction) int {
	idx := len(r.in)
	r.in = append(r.in, in)
	r.out = append(r.out, out)
	out.SetOnSpace(func(packet.VC) { r.Kick() })
	return idx
}

// Deliver is the arrival entry point for port i; wire it as the
// neighbor direction's deliver callback.
func (r *refRouter) Deliver(i int) func(*packet.Packet) {
	return func(p *packet.Packet) {
		p.EnterPort = int8(i)
		r.in[i].Push(p, r.eng.Now())
		r.Kick()
	}
}

// Reinject hands the router a packet salvaged from a failed output link
// (or bounced off a dead neighbor). The packet waits in a side queue and
// leaves through whatever port the current route tables choose — which,
// after a fault swap, is the route-around path.
func (r *refRouter) Reinject(p *packet.Packet) {
	r.reroutes = append(r.reroutes, p)
	r.Kick()
}

// Kick schedules a forwarding sweep at the current instant (idempotent
// per instant).
func (r *refRouter) Kick() {
	if r.sweepPending {
		return
	}
	r.sweepPending = true
	r.eng.Schedule(0, r.sweepFn)
}

// refScratch is the state that lets a sweep route each input head at
// most once and forward without allocating. routes[vc] holds one
// candidate bitmask of words uint64s per output: bit i of output o's
// mask is set when input i's vc head routes to o; live[vc] counts the
// set bits. A sweep builds routes[vc] at its first candidate scan of vc
// (routed[vc]); after that only an input popped since the last scan
// that still holds a vc packet (repoll[vc], -1 when none) is routed
// again. cand and heads carry one output's candidates to the arbiter.
type refScratch struct {
	words  int
	routes [packet.NumVCs][]uint64
	live   [packet.NumVCs]int
	routed [packet.NumVCs]bool
	repoll [packet.NumVCs]int
	cand   []int
	heads  []*packet.Packet
}

// newRefScratch sizes the sweep scratch for n ports.
func newRefScratch(n int) *refScratch {
	words := (n + 63) / 64
	sc := &refScratch{words: words, cand: make([]int, n), heads: make([]*packet.Packet, n)}
	flat := make([]uint64, int(packet.NumVCs)*n*words)
	for vc := range sc.routes {
		sc.routes[vc] = flat[vc*n*words : (vc+1)*n*words]
	}
	return sc
}

// sweep moves as many packets as buffers, credits, crossbar bandwidth,
// and arbitration allow. All outputs' response traffic is considered
// before any request traffic, matching the deadlock-avoidance priority:
// under switch contention this is precisely what backs requests up
// behind responses (§3.2). The output scan order rotates between sweeps
// so no port is structurally favored within a priority class.
func (r *refRouter) sweep() {
	if r.route == nil {
		panic(fmt.Sprintf("router %d: no route function", r.node))
	}
	r.drainReroutes()
	if r.sc == nil || len(r.sc.cand) != len(r.in) {
		r.sc = newRefScratch(len(r.in))
	}
	r.sc.routed = [packet.NumVCs]bool{}
	n := len(r.out)
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
// change nothing: every routed vc head has been granted, no popped input
// awaits routing, and the crossbar is idle — so no later output of the
// pass could find a candidate or abort on a busy crossbar.
func (r *refRouter) exhausted(vc packet.VC) bool {
	sc := r.sc
	return sc.routed[vc] && sc.live[vc] == 0 && sc.repoll[vc] < 0 &&
		(r.switchBps == 0 || r.crossbar.Idle(r.eng.Now()))
}

// drain forwards packets from eligible input heads to output o, vc,
// until space, candidates, credits, or switch bandwidth run out. It
// returns false when the crossbar is busy (a retry has been armed).
func (r *refRouter) drain(o int, vc packet.VC) bool {
	for r.out[o].CanAccept(vc) {
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
		pick := r.policy.Pick(o, vc, candidates, r.sc.heads[:len(candidates)])
		var since sim.Time
		if r.OnForward != nil {
			since = r.in[pick].HeadSince(vc)
		}
		p := r.in[pick].Pop(vc, r.eng.Now())
		sc := r.sc
		sc.routes[vc][o*sc.words+pick/64] &^= 1 << (pick % 64)
		sc.live[vc]--
		if r.in[pick].Len(vc) > 0 {
			sc.repoll[vc] = pick
		}
		r.Forwarded[vc]++
		if r.OnForward != nil {
			r.OnForward(p, pick, r.eng.Now()-since)
		}
		if r.switchBps > 0 {
			r.crossbar.Reserve(r.eng.Now(), sim.BitTime(p.Kind.Bits(), r.switchBps))
		}
		r.out[o].Send(p)
	}
	return true
}

// candidates lists, in ascending order, the inputs whose vc head routes
// to output o, filling r.heads to match. Heads are routed lazily, at the
// same scan where a full rescan would first route them, and at most once
// per sweep: a route function may rewrite the packet it routes (core's
// rehome bounce), so routing a head earlier than that would be visible.
// The entry port is a legal candidate: shortest-path tables never route
// a packet back out the port it entered, but after a mid-run fault swap
// a packet caught traveling toward a dead link must U-turn.
func (r *refRouter) candidates(o int, vc packet.VC) []int {
	sc := r.sc
	if !sc.routed[vc] {
		clear(sc.routes[vc])
		sc.live[vc] = 0
		for i := range r.in {
			r.routeHead(i, vc)
		}
		sc.routed[vc] = true
	} else if i := sc.repoll[vc]; i >= 0 {
		r.routeHead(i, vc)
	}
	sc.repoll[vc] = -1
	cand := sc.cand[:0]
	for w, mask := range sc.routes[vc][o*sc.words : (o+1)*sc.words] {
		for ; mask != 0; mask &= mask - 1 {
			i := w*64 + bits.TrailingZeros64(mask)
			sc.heads[len(cand)] = r.in[i].Head(vc)
			cand = append(cand, i)
		}
	}
	return cand
}

// routeHead routes input i's vc head, if any, into the candidate mask of
// its output. A route outside the port range matches no output.
func (r *refRouter) routeHead(i int, vc packet.VC) {
	head := r.in[i].Head(vc)
	if head == nil {
		return
	}
	if o := r.route(head); o >= 0 && o < len(r.out) {
		sc := r.sc
		sc.routes[vc][o*sc.words+i/64] |= 1 << (i % 64)
		sc.live[vc]++
	}
}

// drainReroutes re-sends salvaged packets through the current route
// tables, ahead of regular arbitration (they already paid their queuing
// dues on the dead link). Packets that find no output space stay queued;
// output OnSpace callbacks re-kick the sweep.
func (r *refRouter) drainReroutes() {
	if len(r.reroutes) == 0 {
		return
	}
	kept := r.reroutes[:0]
	for _, p := range r.reroutes {
		o := r.route(p)
		vc := packet.VCOf(p.Kind)
		if o >= 0 && r.out[o].CanAccept(vc) {
			r.Rerouted++
			r.out[o].Send(p)
		} else {
			kept = append(kept, p)
		}
	}
	r.reroutes = kept
}

// armRetry schedules a sweep for the instant the crossbar frees.
func (r *refRouter) armRetry() {
	if r.retryArmed {
		return
	}
	r.retryArmed = true
	r.eng.At(r.crossbar.FreeAt(), r.retryFn)
}
