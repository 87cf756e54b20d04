package router

import (
	"testing"

	"memnet/internal/arb"
	"memnet/internal/link"
	"memnet/internal/packet"
	"memnet/internal/sim"
)

// twoPortRouter builds a router with two synthetic neighbors. Feed
// functions inject packets as if arriving from a neighbor; sinks record
// what leaves toward each neighbor.
type twoPortRouter struct {
	eng   *sim.Engine
	r     *Router
	feed  [2]*link.Direction // neighbor -> router
	sunk  [2][]*packet.Packet
	toNbr [2]*link.Direction // router -> neighbor
}

func newTwoPort(t *testing.T, policy arb.Policy, switchBps int64) *twoPortRouter {
	t.Helper()
	eng := sim.NewEngine()
	h := &twoPortRouter{eng: eng}
	h.r = New(eng, 1, policy, switchBps)
	cfg := link.Config{BandwidthBps: 240e9, SerDesLatency: sim.Nanosecond,
		QueueDepth: 4, Credits: 4, CountHop: true}
	for i := 0; i < 2; i++ {
		i := i
		h.feed[i] = link.New(eng, cfg, nil)
		h.toNbr[i] = link.New(eng, cfg, nil)
		buf := link.NewBuffer(4, h.feed[i].ReturnCredit)
		idx := h.r.AttachPort(buf, h.toNbr[i])
		h.feed[i].SetDeliver(h.r.Deliver(idx))
		h.toNbr[i].SetDeliver(func(p *packet.Packet) {
			h.sunk[i] = append(h.sunk[i], p)
			h.toNbr[i].ReturnCredit(packet.VCOf(p.Kind))
		})
	}
	return h
}

func TestForwarding(t *testing.T) {
	h := newTwoPort(t, arb.New(arb.RoundRobin, arb.Config{}), 0)
	// Route everything out port 1.
	h.r.SetRoute(func(p *packet.Packet) int { return 1 })
	p := &packet.Packet{ID: 1, Kind: packet.ReadReq, Dst: 9}
	h.feed[0].Send(p)
	h.eng.Run()
	if len(h.sunk[1]) != 1 || h.sunk[1][0] != p {
		t.Fatal("packet not forwarded to port 1")
	}
	if len(h.sunk[0]) != 0 {
		t.Fatal("packet leaked to port 0")
	}
	if h.r.Forwarded[packet.VCRequest] != 1 {
		t.Fatal("forward not counted")
	}
	if p.EnterPort != 0 {
		t.Fatalf("EnterPort = %d", p.EnterPort)
	}
	if p.Hops != 2 { // feed hop + outbound hop
		t.Fatalf("hops = %d", p.Hops)
	}
}

func TestResponsesBeforeRequests(t *testing.T) {
	h := newTwoPort(t, arb.New(arb.RoundRobin, arb.Config{}), 0)
	h.r.SetRoute(func(p *packet.Packet) int { return 1 })
	// Two requests and a response arrive back-to-back from port 0; the
	// response must be forwarded first even though it arrived last
	// (they accumulate while the first request serializes outbound).
	h.feed[0].Send(&packet.Packet{ID: 1, Kind: packet.WriteReq})
	h.feed[0].Send(&packet.Packet{ID: 2, Kind: packet.WriteReq})
	h.feed[0].Send(&packet.Packet{ID: 3, Kind: packet.ReadResp})
	h.eng.Run()
	if len(h.sunk[1]) != 3 {
		t.Fatalf("sunk %d", len(h.sunk[1]))
	}
	// The response (ID 3) should not be last.
	if h.sunk[1][2].ID == 3 {
		t.Fatalf("response forwarded last: %v", h.sunk[1])
	}
}

func TestCrossbarOccupancy(t *testing.T) {
	// A very slow crossbar (1 Gbps) makes switch traversal dominate:
	// two 128-bit packets need 128ns each of crossbar time.
	h := newTwoPort(t, arb.New(arb.RoundRobin, arb.Config{}), 1e9)
	h.r.SetRoute(func(p *packet.Packet) int { return 1 })
	h.feed[0].Send(&packet.Packet{ID: 1, Kind: packet.ReadReq})
	h.feed[0].Send(&packet.Packet{ID: 2, Kind: packet.ReadReq})
	h.eng.Run()
	if len(h.sunk[1]) != 2 {
		t.Fatalf("sunk %d", len(h.sunk[1]))
	}
	// With the crossbar serializing at 128ns per packet, the two
	// deliveries must be at least that far apart (link serialization at
	// 240Gbps is negligible by comparison).
	// Find arrival times via the engine clock history: compare via a
	// separate run is overkill — assert total runtime instead.
	if h.eng.Now() < 256*sim.Nanosecond {
		t.Fatalf("finished at %v; crossbar not modeled", h.eng.Now())
	}
}

func TestIdealSwitchWhenZero(t *testing.T) {
	h := newTwoPort(t, arb.New(arb.RoundRobin, arb.Config{}), 0)
	h.r.SetRoute(func(p *packet.Packet) int { return 1 })
	for i := 0; i < 4; i++ {
		h.feed[0].Send(&packet.Packet{ID: uint64(i), Kind: packet.ReadReq})
	}
	h.eng.Run()
	// 4 control packets: bounded by link serialization only (~0.54ns
	// each) plus serdes; far under 10ns.
	if h.eng.Now() > 10*sim.Nanosecond {
		t.Fatalf("ideal switch too slow: %v", h.eng.Now())
	}
}

func TestContentionCounting(t *testing.T) {
	h := newTwoPort(t, arb.New(arb.RoundRobin, arb.Config{}), 0)
	// Both inputs feed port... we need a third port to contend into.
	// Reuse the two-port harness: traffic from both ports routed to the
	// OTHER port would not contend. Instead route everything from both
	// ports out port 1: port 1's own feed is skipped (i == o), so only
	// port 0 candidates exist -> no contention. Use a 3-port router.
	eng := sim.NewEngine()
	r := New(eng, 1, arb.New(arb.RoundRobin, arb.Config{}), 0)
	feedCfg := link.Config{BandwidthBps: 240e9, SerDesLatency: sim.Nanosecond,
		QueueDepth: 16, Credits: 4, CountHop: true}
	outCfg := link.Config{BandwidthBps: 24e9, SerDesLatency: sim.Nanosecond,
		QueueDepth: 1, Credits: 4, CountHop: true}
	var feeds [3]*link.Direction
	var outs [3]*link.Direction
	for i := 0; i < 3; i++ {
		i := i
		feeds[i] = link.New(eng, feedCfg, nil)
		outs[i] = link.New(eng, outCfg, nil)
		buf := link.NewBuffer(4, feeds[i].ReturnCredit)
		idx := r.AttachPort(buf, outs[i])
		feeds[i].SetDeliver(r.Deliver(idx))
		outs[i].SetDeliver(func(p *packet.Packet) {
			outs[i].ReturnCredit(packet.VCOf(p.Kind))
		})
	}
	r.SetRoute(func(p *packet.Packet) int { return 2 })
	// Saturate from ports 0 and 1 toward port 2 (slow 24Gbps link, depth-1
	// queue) so heads coexist.
	for i := 0; i < 8; i++ {
		feeds[0].Send(&packet.Packet{ID: uint64(i), Kind: packet.ReadResp})
		feeds[1].Send(&packet.Packet{ID: uint64(100 + i), Kind: packet.ReadResp})
	}
	eng.Run()
	if r.Contended == 0 {
		t.Fatal("no contention observed")
	}
	if r.TotalInputWait() <= 0 {
		t.Fatal("input wait should accumulate under contention")
	}
	_ = h
}

func TestMissingRoutePanics(t *testing.T) {
	h := newTwoPort(t, arb.New(arb.RoundRobin, arb.Config{}), 0)
	defer func() {
		if recover() == nil {
			t.Fatal("sweep without route must panic")
		}
	}()
	h.feed[0].Send(&packet.Packet{ID: 1, Kind: packet.ReadReq})
	h.eng.Run()
}

// TestReinjectReroutes: a packet salvaged off a dead link leaves through
// whatever port the route table picks, counted in Rerouted.
func TestReinjectReroutes(t *testing.T) {
	h := newTwoPort(t, arb.New(arb.RoundRobin, arb.Config{}), 0)
	h.r.SetRoute(func(p *packet.Packet) int { return 1 })
	p := &packet.Packet{ID: 1, Kind: packet.ReadReq, Src: 0, Dst: 2}
	h.r.Reinject(p)
	if h.r.RerouteBacklog() != 1 {
		t.Fatalf("backlog %d before sweep, want 1", h.r.RerouteBacklog())
	}
	h.eng.Run()
	if len(h.sunk[1]) != 1 || h.sunk[1][0] != p {
		t.Fatalf("reinjected packet not rerouted out port 1: %v", h.sunk)
	}
	if h.r.Rerouted != 1 || h.r.RerouteBacklog() != 0 {
		t.Fatalf("Rerouted=%d backlog=%d, want 1/0", h.r.Rerouted, h.r.RerouteBacklog())
	}
}

// TestReinjectWaitsForSpace: with the chosen output failed, the salvaged
// packet waits in the side queue instead of being dropped or panicking.
func TestReinjectWaitsForSpace(t *testing.T) {
	h := newTwoPort(t, arb.New(arb.RoundRobin, arb.Config{}), 0)
	routeTo := 1
	h.r.SetRoute(func(p *packet.Packet) int { return routeTo })
	h.toNbr[1].Fail(func(*packet.Packet) {})
	p := &packet.Packet{ID: 1, Kind: packet.ReadReq, Src: 0, Dst: 2}
	h.r.Reinject(p)
	h.eng.Run()
	if h.r.RerouteBacklog() != 1 || h.r.Rerouted != 0 {
		t.Fatalf("packet should wait: backlog=%d rerouted=%d", h.r.RerouteBacklog(), h.r.Rerouted)
	}
	// Route table swap (as core does after a kill) frees it via port 0.
	routeTo = 0
	h.r.Kick()
	h.eng.Run()
	if len(h.sunk[0]) != 1 || h.r.Rerouted != 1 {
		t.Fatalf("packet not released after table swap: %v", h.sunk)
	}
}

// checkingPolicy wraps a policy and verifies the Pick contract on every
// call: candidates strictly ascending, heads[k] the current vc head of
// candidates[k].
type checkingPolicy struct {
	t     *testing.T
	r     *Router
	inner arb.Policy
	calls int
	maxIn int
}

func (c *checkingPolicy) Pick(out int, vc packet.VC, candidates []int, heads []*packet.Packet) int {
	c.calls++
	if len(candidates) == 0 || len(candidates) != len(heads) {
		c.t.Fatalf("Pick got %d candidates and %d heads", len(candidates), len(heads))
	}
	for k, i := range candidates {
		if k > 0 && i <= candidates[k-1] {
			c.t.Fatalf("candidates not ascending: %v", candidates)
		}
		if heads[k] != c.r.InputBuffer(i).Head(vc) {
			c.t.Fatalf("heads[%d] is not the head of input %d", k, i)
		}
		c.maxIn = max(c.maxIn, i)
	}
	return c.inner.Pick(out, vc, candidates, heads)
}

// fanIn builds a router with inputs input ports and one output port
// (the last index), all routed to the output. The output link is slow
// and shallow so inputs contend; its sink counts deliveries.
func fanIn(t *testing.T, inputs int, policy arb.Policy, switchBps int64) (*sim.Engine, *Router, *int) {
	t.Helper()
	eng := sim.NewEngine()
	r := New(eng, 1, policy, switchBps)
	cfg := link.Config{BandwidthBps: 24e9, SerDesLatency: sim.Nanosecond,
		QueueDepth: 1, Credits: 4, CountHop: true}
	for i := 0; i < inputs; i++ {
		r.AttachPort(link.NewBuffer(4, nil), link.New(eng, cfg, nil))
	}
	out := link.New(eng, cfg, nil)
	sunk := new(int)
	out.SetDeliver(func(p *packet.Packet) {
		*sunk++
		out.ReturnCredit(packet.VCOf(p.Kind))
	})
	outPort := r.AttachPort(link.NewBuffer(4, nil), out)
	r.SetRoute(func(*packet.Packet) int { return outPort })
	return eng, r, sunk
}

// TestManyPortsDrainAscending: a router wider than one 64-bit candidate
// mask word, every input routed to one output, drains every input, and
// the arbiter always sees its candidates in ascending input order.
func TestManyPortsDrainAscending(t *testing.T) {
	const inputs = 130
	pol := &checkingPolicy{t: t, inner: arb.New(arb.RoundRobin, arb.Config{})}
	eng, r, sunk := fanIn(t, inputs, pol, 0)
	pol.r = r
	id := uint64(0)
	for i := 0; i < inputs; i++ {
		for _, kind := range []packet.Kind{packet.ReadReq, packet.ReadResp} {
			id++
			r.Deliver(i)(&packet.Packet{ID: id, Kind: kind})
		}
	}
	eng.Run()
	if *sunk != 2*inputs {
		t.Fatalf("delivered %d of %d packets", *sunk, 2*inputs)
	}
	for i := 0; i < inputs; i++ {
		if n := r.InputBuffer(i).Len(packet.VCRequest) + r.InputBuffer(i).Len(packet.VCResponse); n != 0 {
			t.Fatalf("input %d still holds %d packets", i, n)
		}
	}
	if pol.maxIn < 128 {
		t.Fatalf("highest candidate %d never reached the third mask word", pol.maxIn)
	}
	if r.Contended == 0 {
		t.Fatal("no contended arbitration across 130 inputs")
	}
}

// countRoutes wraps r's routing to count its calls per packet
// and returns a loop that runs eng dry, one Step at a time: each event
// starts with fresh counts and check runs after it. A sweep, whether
// kicked or a crossbar retry, is one event, so check sees the counts of
// every sweep.
func countRoutes(eng *sim.Engine, r *Router, check func(calls map[*packet.Packet]int)) (run func()) {
	calls := map[*packet.Packet]int{}
	route := r.route
	r.SetRoute(func(p *packet.Packet) int {
		calls[p]++
		return route.Route(p)
	})
	return func() {
		for {
			clear(calls)
			if !eng.Step() {
				return
			}
			check(calls)
		}
	}
}

// TestRouteOncePerSweep: however many outputs a sweep scans, each head
// is routed at most once in it — with and without crossbar modeling.
func TestRouteOncePerSweep(t *testing.T) {
	for _, bps := range []int64{0, 100e9} {
		eng := sim.NewEngine()
		r := New(eng, 1, arb.New(arb.Distance, arb.Config{}), bps)
		cfg := link.Config{BandwidthBps: 24e9, SerDesLatency: sim.Nanosecond,
			QueueDepth: 2, Credits: 4, CountHop: true}
		const ports = 6
		sunk := 0
		for i := 0; i < ports; i++ {
			out := link.New(eng, cfg, nil)
			out.SetDeliver(func(p *packet.Packet) {
				sunk++
				out.ReturnCredit(packet.VCOf(p.Kind))
			})
			r.AttachPort(link.NewBuffer(4, nil), out)
		}
		// Inputs 0-2 send to outputs 3-5 and back, by packet ID.
		r.SetRoute(func(p *packet.Packet) int { return 3 + int(p.ID%3) })
		sweeps := 0 // events that routed a head
		run := countRoutes(eng, r, func(calls map[*packet.Packet]int) {
			if len(calls) > 0 {
				sweeps++
			}
			for p, n := range calls {
				if n > 1 {
					t.Fatalf("bps=%d: packet %d routed %d times in one sweep", bps, p.ID, n)
				}
			}
		})
		id := uint64(0)
		for i := 0; i < 3; i++ {
			for n := 0; n < 4; n++ {
				for _, kind := range []packet.Kind{packet.WriteReq, packet.ReadResp} {
					id++
					r.Deliver(i)(&packet.Packet{ID: id, Kind: kind, Distance: int(id % 5)})
				}
			}
		}
		run()
		if sunk != int(id) || sweeps == 0 {
			t.Fatalf("bps=%d: delivered %d of %d in %d sweeps", bps, sunk, id, sweeps)
		}
	}
}

// TestBusyCrossbarAbortRoutesNothing: a sweep that finds the crossbar
// busy at its first accepting output arms a retry and aborts before any
// candidate scan, so it routes no head and does not rotate the scan.
func TestBusyCrossbarAbortRoutesNothing(t *testing.T) {
	eng, r, _ := fanIn(t, 2, arb.New(arb.RoundRobin, arb.Config{}), 1e9)
	routes := 0
	route := r.route
	r.SetRoute(func(p *packet.Packet) int {
		routes++
		return route.Route(p)
	})
	for id := uint64(1); id <= 3; id++ {
		r.InputBuffer(0).Push(&packet.Packet{ID: id, Kind: packet.ReadReq}, eng.Now())
	}
	r.sweep() // forwards packet 1, then meets its own crossbar reservation
	if routes != 1 || r.Forwarded[packet.VCRequest] != 1 || !r.retryArmed {
		t.Fatalf("first sweep: routes=%d forwarded=%d retryArmed=%v, want 1/1/true",
			routes, r.Forwarded[packet.VCRequest], r.retryArmed)
	}
	start := r.sweepStart
	routes = 0
	r.sweep()
	if routes != 0 {
		t.Fatalf("aborted sweep routed %d heads, want 0", routes)
	}
	if r.sweepStart != start || r.Forwarded[packet.VCRequest] != 1 {
		t.Fatalf("aborted sweep moved state: sweepStart %d->%d, forwarded %d",
			start, r.sweepStart, r.Forwarded[packet.VCRequest])
	}
}

// TestSaturatedForwardAllocationFree: a 4-input/1-output router whose
// inputs refill from a pool on every credit return forwards without
// allocating once warm.
func TestSaturatedForwardAllocationFree(t *testing.T) {
	eng := sim.NewEngine()
	r := New(eng, 1, arb.New(arb.DistanceAugmented, arb.Config{
		WriteDemotion: 2,
		Bias:          func(n packet.NodeID) int64 { return int64(n % 2) },
	}), 100e9)
	cfg := link.Config{BandwidthBps: 240e9, SerDesLatency: sim.Nanosecond,
		QueueDepth: 4, Credits: 4, CountHop: true}
	var pool packet.Pool
	forwarded := 0
	out := link.New(eng, cfg, nil)
	out.SetDeliver(func(p *packet.Packet) {
		vc := packet.VCOf(p.Kind)
		pool.Put(p)
		forwarded++
		out.ReturnCredit(vc)
	})
	const inputs = 4
	kinds := [packet.NumVCs]packet.Kind{packet.VCRequest: packet.WriteReq, packet.VCResponse: packet.ReadResp}
	deliver := make([]func(*packet.Packet), inputs)
	next := uint64(0)
	feed := func(i int, vc packet.VC) {
		next++
		p := pool.Get()
		*p = packet.Packet{ID: next, Kind: kinds[vc], Src: packet.NodeID(next % 7), Distance: int(next % 5)}
		deliver[i](p)
	}
	for i := 0; i < inputs; i++ {
		i := i
		in := link.NewBuffer(4, func(vc packet.VC) { feed(i, vc) })
		deliver[i] = r.Deliver(r.AttachPort(in, link.New(eng, cfg, nil)))
	}
	outPort := r.AttachPort(link.NewBuffer(4, nil), out)
	r.SetRoute(func(*packet.Packet) int { return outPort })
	for i := 0; i < inputs; i++ {
		for n := 0; n < 4; n++ {
			feed(i, packet.VCRequest)
			feed(i, packet.VCResponse)
		}
	}
	forward := func(n int) {
		for stop := forwarded + n; forwarded < stop; {
			if !eng.Step() {
				t.Fatal("event queue drained")
			}
		}
	}
	forward(2000) // warm-up: pool, event queue and scratch reach size
	if n := testing.AllocsPerRun(20, func() { forward(200) }); n != 0 {
		t.Fatalf("%v allocations per 200 forwards, want 0", n)
	}
	if r.Contended == 0 {
		t.Fatal("inputs never contended")
	}
}

// TestLastGrantStillAbortsOnBusyCrossbar: a pass whose last candidate
// was just granted is cut short only while the crossbar is idle. Here
// the grant fills its output and reserves the crossbar, so the next
// accepting output must still arm a retry and abort the sweep, leaving
// the scan rotation where it was.
func TestLastGrantStillAbortsOnBusyCrossbar(t *testing.T) {
	eng, r, _ := fanIn(t, 2, arb.New(arb.RoundRobin, arb.Config{}), 1e9)
	out := r.Output(2)
	out.Send(&packet.Packet{ID: 1, Kind: packet.ReadReq}) // occupies the wire
	r.InputBuffer(0).Push(&packet.Packet{ID: 2, Kind: packet.ReadReq}, eng.Now())
	r.sweepStart = 2 // the request pass scans output 2 first
	r.sweep()
	if r.Forwarded[packet.VCRequest] != 1 || out.CanAccept(packet.VCRequest) {
		t.Fatalf("forwarded %d, output accepting %v; want 1 forward filling the output",
			r.Forwarded[packet.VCRequest], out.CanAccept(packet.VCRequest))
	}
	if !r.retryArmed || r.sweepStart != 2 {
		t.Fatalf("retryArmed=%v sweepStart=%d, want an aborted sweep (true, 2)", r.retryArmed, r.sweepStart)
	}
}

// TestInitTwicePanics: initializing a router a second time panics and
// leaves it forwarding. Zeroing it would unlink its retry wakeup from
// the engine.
func TestInitTwicePanics(t *testing.T) {
	eng, r, sunk := fanIn(t, 1, arb.New(arb.RoundRobin, arb.Config{}), 1e9)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("second Init did not panic")
			}
		}()
		r.Init(eng, 2, arb.New(arb.RoundRobin, arb.Config{}), 0)
	}()
	r.Receiver(0).Receive(&packet.Packet{ID: 1, Kind: packet.ReadReq})
	eng.Run()
	if *sunk != 1 || r.Node() != 1 || r.NumPorts() != 2 {
		t.Fatalf("after the panic: %d forwarded, node %d, %d ports", *sunk, r.Node(), r.NumPorts())
	}
}

// TestSlabFitRecycles: a store fitted for a larger network serves a
// smaller one from the same arrays, cut to the smaller counts so that
// Reserve still panics on a miscount, and Clear leaves it zero.
func TestSlabFitRecycles(t *testing.T) {
	var store Slab
	big := store.Fit(4, 20, 8)
	words := len(big.masks)
	var a Router
	a.Reserve(&big, 8)
	a.ports = append(a.ports, port{r: &a, i: 0})
	for i := range a.rs.masks {
		a.rs.masks[i] = ^uint64(0)
	}
	a.cand[0], a.heads[0] = 7, new(packet.Packet)
	store.Clear()
	for i, pt := range store.ports[:cap(store.ports)] {
		if pt != (port{}) {
			t.Fatalf("port %d is %+v after Clear", i, pt)
		}
	}
	for i, w := range store.masks[:cap(store.masks)] {
		if w != 0 {
			t.Fatalf("mask word %d is %x after Clear", i, w)
		}
	}
	if store.cand[0] != 0 || store.heads[0] != nil {
		t.Fatal("candidate scratch not cleared")
	}

	small := store.Fit(2, 6, 4)
	if &small.masks[0] != &store.masks[0] || cap(store.masks) != words {
		t.Fatal("a smaller fit did not reuse the store's arrays")
	}
	if cap(small.ports) != 6 || len(small.masks) != maskLen(4)+maskLen(2) || len(small.cand) != 4 {
		t.Fatalf("fit for 6 ports of width 4 hands out %d ports, %d mask words, %d candidates",
			cap(small.ports), len(small.masks), len(small.cand))
	}
	var b, c Router
	b.Reserve(&small, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("reserving 3 ports from the 2 left of a recycled fit did not panic")
		}
	}()
	c.Reserve(&small, 3)
}
