package router

import (
	"slices"
	"testing"

	"memnet/internal/arb"
	"memnet/internal/link"
	"memnet/internal/packet"
	"memnet/internal/sim"
)

// FuzzRouterSweep drives Router and refRouter — the router before routes
// persisted across sweeps and before the crossbar retry could be
// deferred — side by side, each on its own engine, with the same
// arrivals, salvaged packets, route-table swaps, output stalls, link
// failures and repairs, port counts (either side of the route masks'
// 64-bit word included) and crossbar widths. The router under test
// takes its storage from New or, as a build's routers do, from a Slab
// shared with another router. After every operation both must show the same
// grants and deliveries, Forwarded and Contended counts, scan rotation
// (sweepStart), retryArmed, clock and logical event count (Fired).
func FuzzRouterSweep(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 2048 {
			data = data[:2048]
		}
		checkRouterTwin(t, data)
	})
}

// sweeper is what the twin drives on either router.
type sweeper interface {
	AttachPort(in *link.Buffer, out *link.Direction) int
	Deliver(i int) func(*packet.Packet)
	Reinject(p *packet.Packet)
	Kick()
}

// twinRecord is one grant (out < 0) or one delivery at output out.
type twinRecord struct {
	at   sim.Time
	out  int
	port int
	id   uint64
	wait sim.Time
}

// twinState is the router and engine state the twin compares.
type twinState struct {
	now        sim.Time
	fired      uint64
	forwarded  [packet.NumVCs]uint64
	contended  uint64
	rerouted   uint64
	sweepStart int
	retryArmed bool
}

// twinSide is one router on its own engine, with n ports whose output
// sinks can withhold credits (a stalled downstream buffer).
type twinSide struct {
	eng     *sim.Engine
	r       sweeper
	state   func() twinState
	in      []*link.Buffer
	outs    []*link.Direction
	held    [][]packet.VC
	stalled []bool
	log     []twinRecord
	shift   packet.NodeID
}

// Route is the side's route table: a packet leaves through port
// (Dst+shift) mod n+1, where port n is out of range and matches no
// output. Salvaged packets (Class salvaged) always route in range, as
// a router indexes its outputs with their route unchecked. The router
// under test reaches it through its Routing; the reference through a
// function.
func (s *twinSide) Route(p *packet.Packet) int {
	n := len(s.outs)
	if p.Class == salvaged {
		return int(p.Dst+s.shift) % n
	}
	return int(p.Dst+s.shift) % (n + 1)
}

func newTwinSide(r sweeper, eng *sim.Engine, n int, cfg link.Config) *twinSide {
	s := &twinSide{eng: eng, r: r, held: make([][]packet.VC, n), stalled: make([]bool, n)}
	for o := 0; o < n; o++ {
		o := o
		out := link.New(eng, cfg, nil)
		out.SetDeliver(func(p *packet.Packet) {
			s.log = append(s.log, twinRecord{at: eng.Now(), out: o, id: p.ID})
			vc := packet.VCOf(p.Kind)
			if s.stalled[o] {
				s.held[o] = append(s.held[o], vc)
				return
			}
			out.ReturnCredit(vc)
		})
		in := link.NewBuffer(8, nil)
		s.in = append(s.in, in)
		s.outs = append(s.outs, out)
		r.AttachPort(in, out)
	}
	return s
}

// salvaged marks a packet handed to Reinject.
const salvaged = 1

// onForward records a grant.
func (s *twinSide) onForward(p *packet.Packet, port int, wait sim.Time) {
	s.log = append(s.log, twinRecord{at: s.eng.Now(), out: -1, port: port, id: p.ID, wait: wait})
}

// toggleStall stalls output o's sink, or unstalls it and returns every
// credit it held.
func (s *twinSide) toggleStall(o int) {
	s.stalled[o] = !s.stalled[o]
	if s.stalled[o] {
		return
	}
	for _, vc := range s.held[o] {
		s.outs[o].ReturnCredit(vc)
	}
	s.held[o] = s.held[o][:0]
}

// toggleLink fails output o, salvaging its queue into the router, or
// retrains and restores a failed one.
func (s *twinSide) toggleLink(o int) {
	d := s.outs[o]
	if d.State() == link.Up {
		d.Fail(func(p *packet.Packet) {
			p.Class = salvaged
			s.r.Reinject(p)
		})
		return
	}
	d.BeginRetrain()
	d.CompleteRetrain()
}

// twinBias is the augmented policy's technology bias of sources 0-63
// (every source an arrival can carry): n%3.
var twinBias = func() []int64 {
	b := make([]int64, 64)
	for n := range b {
		b[n] = int64(n % 3)
	}
	return b
}()

// twinPolicy builds arbitration policy k (mod 3); each side needs its
// own, as policies keep state. The router under test gets an arbiter
// initialized as a build's slab does, reading twinBias; the reference
// gets New's, reading the same bias through a function.
func twinPolicy(k byte, slab bool) arb.Policy {
	kind := [...]arb.Kind{arb.RoundRobin, arb.Distance, arb.DistanceAugmented}[k%3]
	if slab {
		a := new(arb.Arbiter)
		a.Init(kind, 2, twinBias)
		return a
	}
	return arb.New(kind, arb.Config{
		WriteDemotion: 2,
		Bias:          func(n packet.NodeID) int64 { return twinBias[n] },
	})
}

// checkRouterTwin decodes data into a router configuration and an
// operation sequence and runs it on both routers. Three header bytes
// pick the port count (2 + b%7, plus 64 with bit 7 set; with bits 5
// and 6 both set, one of 9, 63, 64 and 65 by the low two bits instead)
// and the storage of the router under test (a Slab with bit 4 set,
// else New's), the crossbar bandwidth and policy, and the output
// links' queue depth and credits.
// Then each op byte, taken mod 8, is
//
//	0 arrival: port, kind, destination and distance from the next bytes
//	1 advance both clocks by next * 250 ps
//	2 toggle a stall of output next%n
//	3 swap the route table (shift by the next byte), invalidating the
//	  router's routes; with bit 3 set, kick both routers
//	4 salvage a packet into the reroute queue (Reinject)
//	5 kick both routers
//	6 fail output next%n, or retrain and restore it if failed
//	7 advance both clocks by next%64 ps
func checkRouterTwin(t *testing.T, data []byte) {
	t.Helper()
	in := data
	next := func() byte {
		if len(in) == 0 {
			return 0
		}
		c := in[0]
		in = in[1:]
		return c
	}
	nb := next()
	n := 2 + int(nb%7)
	if nb&0x80 != 0 {
		n += 64
	}
	if nb&0x60 == 0x60 {
		n = [...]int{9, 63, 64, 65}[nb&3]
	}
	xb := next()
	bps := [...]int64{0, 1e9, 20e9, 160e9}[xb&3]
	lb := next()
	cfg := link.Config{BandwidthBps: 24e9, SerDesLatency: sim.Nanosecond,
		QueueDepth: 1 + int(lb%3), Credits: 1 + int(lb>>2)%4}

	engN, engR := sim.NewEngine(), sim.NewEngine()
	// With a slab, a neighbor takes its first three ports' storage,
	// marked so that any write into it shows at the end.
	var rn *Router
	var neighbor Router
	if nb&0x10 != 0 {
		var store Slab
		slab := store.Fit(2, n+3, max(n, 3))
		neighbor.Reserve(&slab, 3)
		for i := range neighbor.rs.masks {
			neighbor.rs.masks[i] = ^uint64(0)
		}
		rn = new(Router)
		rn.Init(engN, 1, twinPolicy(xb>>2, true), bps)
		rn.Reserve(&slab, n)
	} else {
		rn = New(engN, 1, twinPolicy(xb>>2, true), bps)
	}
	rr := newRefRouter(engR, 1, twinPolicy(xb>>2, false), bps)
	sn := newTwinSide(rn, engN, n, cfg)
	sr := newTwinSide(rr, engR, n, cfg)
	rn.SetRouting(sn)
	rr.SetRoute(sr.Route)
	rn.OnForward, rr.OnForward = sn.onForward, sr.onForward
	sn.state = func() twinState {
		// A retry whose place has passed is settled at the router's next
		// entry; compare its outcome without applying it, so the router
		// itself must settle on every entry path.
		start, armed := rn.sweepStart, rn.retryArmed
		if rn.retry.Passed() {
			start, armed = start+1, false
		}
		return twinState{engN.Now(), engN.Fired(), rn.Forwarded, rn.Contended, rn.Rerouted, start, armed}
	}
	sr.state = func() twinState {
		return twinState{engR.Now(), engR.Fired(), rr.Forwarded, rr.Contended, rr.Rerouted, rr.sweepStart, rr.retryArmed}
	}
	sides := [2]*twinSide{sn, sr}
	kinds := [...]packet.Kind{packet.ReadReq, packet.WriteReq, packet.ReadResp, packet.WriteAck}

	id := uint64(0)
	packetPair := func() [2]*packet.Packet {
		id++
		k, dst, dist := next(), next(), next()
		var ps [2]*packet.Packet
		for i := range ps {
			ps[i] = &packet.Packet{ID: id, Kind: kinds[k&3], Src: packet.NodeID(k >> 2),
				Dst: packet.NodeID(dst), Distance: int(dist % 6)}
		}
		return ps
	}
	advance := func(d sim.Time) {
		deadline := engN.Now() + d
		for _, s := range sides {
			s.eng.RunUntil(deadline)
		}
	}
	check := func(op string) {
		if a, b := sn.state(), sr.state(); a != b {
			t.Fatalf("after %s: state %+v, reference %+v", op, a, b)
		}
		if !slices.Equal(sn.log, sr.log) {
			k := 0
			for k < len(sn.log) && k < len(sr.log) && sn.log[k] == sr.log[k] {
				k++
			}
			t.Fatalf("after %s: record %d differs (%d vs %d records): %+v vs %+v", op, k,
				len(sn.log), len(sr.log), sn.log[k:min(k+1, len(sn.log))], sr.log[k:min(k+1, len(sr.log))])
		}
	}

	for len(in) > 0 {
		op := next()
		switch op % 8 {
		case 0:
			port := int(next()) % n
			ps := packetPair()
			if sn.in[port].Len(packet.VCOf(ps[0].Kind)) >= 8 {
				break // the input buffer is full
			}
			sn.r.Deliver(port)(ps[0])
			sr.r.Deliver(port)(ps[1])
		case 1:
			advance(sim.Time(next()) * 250)
		case 2:
			o := int(next()) % n
			for _, s := range sides {
				s.toggleStall(o)
			}
		case 3:
			shift := packet.NodeID(next())
			for _, s := range sides {
				s.shift = shift
			}
			rn.InvalidateRoutes()
			if op&8 != 0 {
				rn.Kick()
				rr.Kick()
			}
		case 4:
			ps := packetPair()
			ps[0].Class, ps[1].Class = salvaged, salvaged
			sn.r.Reinject(ps[0])
			sr.r.Reinject(ps[1])
		case 5:
			rn.Kick()
			rr.Kick()
		case 6:
			o := int(next()) % n
			for _, s := range sides {
				s.toggleLink(o)
			}
		case 7:
			advance(sim.Time(next() % 64))
		}
		check("op " + string('0'+rune(op%8)))
	}
	// Drain: release every stall and failed link, then run both out.
	for o := 0; o < n; o++ {
		for _, s := range sides {
			if s.stalled[o] {
				s.toggleStall(o)
			}
			if s.outs[o].State() != link.Up {
				s.toggleLink(o)
			}
		}
	}
	for _, s := range sides {
		s.eng.Run()
	}
	check("drain")
	ports := neighbor.ports[:cap(neighbor.ports)]
	if slices.ContainsFunc(ports, func(pt port) bool { return pt != port{} }) ||
		slices.ContainsFunc(neighbor.rs.masks, func(m uint64) bool { return m != ^uint64(0) }) {
		t.Fatalf("the slab neighbor's storage was written: ports %v, masks %x", ports, neighbor.rs.masks)
	}
}
