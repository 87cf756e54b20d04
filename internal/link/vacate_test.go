package link

import (
	"testing"

	"memnet/internal/fault"
	"memnet/internal/packet"
	"memnet/internal/sim"
)

// drainQueue pops every packet left in q: the packets q still reaches.
func drainQueue(q *packet.Queue) []*packet.Packet {
	var ps []*packet.Packet
	for q.Len() > 0 {
		p, _ := q.Pop()
		ps = append(ps, p)
	}
	if q.Head() != nil {
		panic("empty queue still has a head")
	}
	return ps
}

// checkDeparted fails t for every packet of left that departed before, and
// for every departed packet still linked into a queue: once a packet
// leaves an output queue, the wire, the retry buffer or an input buffer,
// nothing there may reach it — the packet may already be back in a pool
// serving another transaction.
func checkDeparted(t *testing.T, where string, departed map[*packet.Packet]bool, left []*packet.Packet) {
	t.Helper()
	for p := range departed {
		if p.Queued() {
			t.Errorf("%s: departed packet %d is still linked into a queue", where, p.ID)
		}
	}
	for _, p := range left {
		if departed[p] {
			t.Errorf("%s: a queue still reaches departed packet %d", where, p.ID)
		}
	}
}

// TestVacatedSlotsZeroed: once a packet leaves an output queue, the wire,
// the retry buffer or an input buffer, it is unlinked, and no queue,
// landing list or retry-buffer slot still reaches it.
func TestVacatedSlotsZeroed(t *testing.T) {
	eng := sim.NewEngine()
	cfg := testCfg()
	cfg.QueueDepth = 16
	cfg.Credits = 16
	d := New(eng, cfg, nil)
	d.AttachFault(fault.NewLinkFault(42, 1e-3, 0, 8*sim.Nanosecond))
	buf := NewBuffer(16, d.ReturnCredit)
	departed := map[*packet.Packet]bool{}
	d.SetDeliver(func(p *packet.Packet) {
		if p.Queued() {
			t.Errorf("packet %d delivered while still linked", p.ID)
		}
		buf.Push(p, eng.Now())
	})
	for i := 0; i < 16; i++ {
		d.Send(mkPacket(uint64(i), packet.ReadReq))
	}
	eng.Run()
	if d.Stats().Retries == 0 {
		t.Fatal("no retransmission exercised the retry buffer")
	}
	if d.landing.Len() != 0 || d.landing.Head() != nil {
		t.Fatalf("landing list holds %d packets after every landing", d.landing.Len())
	}
	for i := 0; i < 8; i++ {
		departed[buf.Pop(packet.VCRequest, eng.Now())] = true
	}
	for i, r := range d.fs.retryQ[:cap(d.fs.retryQ)] {
		if r.p != nil {
			t.Errorf("retry buffer slot %d still holds packet %d", i, r.p.ID)
		}
	}
	var left []*packet.Packet
	for vc := range d.queue {
		left = append(left, drainQueue(&d.queue[vc])...)
	}
	left = append(left, drainQueue(&d.landing)...)
	rest := drainQueue(&buf.fifo[packet.VCRequest])
	if len(rest) != 8 {
		t.Fatalf("input buffer kept %d packets, want 8", len(rest))
	}
	checkDeparted(t, "after pops", departed, append(left, rest...))

	// An emptied queue forgets its last packet: the next push starts a
	// fresh list rather than linking behind a departed one.
	p := mkPacket(99, packet.ReadReq)
	buf.fifo[packet.VCRequest].Push(p, eng.Now())
	if got := drainQueue(&buf.fifo[packet.VCRequest]); len(got) != 1 || got[0] != p {
		t.Fatalf("refilled input buffer reaches %d packets, want exactly the new one", len(got))
	}
}

// TestFailDrainUnlinks: Fail hands over every packet waiting in the
// output queues and the retry buffer unlinked, leaves the queues empty,
// and still lands the packets already on the wire — each unlinked on
// delivery and none of them a drained one.
func TestFailDrainUnlinks(t *testing.T) {
	eng := sim.NewEngine()
	cfg := testCfg()
	cfg.QueueDepth = 8
	cfg.Credits = 2
	d := New(eng, cfg, nil)
	d.AttachFault(fault.NewLinkFault(7, 2e-3, 0, 8*sim.Nanosecond))
	var landed []*packet.Packet
	d.SetDeliver(func(p *packet.Packet) {
		if p.Queued() {
			t.Errorf("packet %d delivered while still linked", p.ID)
		}
		landed = append(landed, p)
	})
	for i := 0; i < 8; i++ {
		d.Send(mkPacket(uint64(i), packet.ReadReq))
		d.Send(mkPacket(uint64(100+i), packet.ReadResp))
	}
	if d.landing.Len() == 0 {
		t.Fatal("nothing on the wire when the link fails")
	}
	drained := map[*packet.Packet]bool{}
	d.Fail(func(p *packet.Packet) {
		if p.Queued() {
			t.Errorf("packet %d drained while still linked", p.ID)
		}
		drained[p] = true
	})
	if len(drained) == 0 {
		t.Fatal("Fail drained nothing")
	}
	for vc := range d.queue {
		if d.queue[vc].Len() != 0 || d.queue[vc].Head() != nil {
			t.Errorf("output queue %v keeps %d packets after Fail", packet.VC(vc), d.queue[vc].Len())
		}
	}
	if d.RetryLen() != 0 {
		t.Errorf("retry buffer keeps %d packets after Fail", d.RetryLen())
	}
	eng.Run()
	if len(landed)+len(drained) != 16 {
		t.Fatalf("%d landed + %d drained, want all 16 packets", len(landed), len(drained))
	}
	checkDeparted(t, "after Fail", drained, append(landed, drainQueue(&d.landing)...))
}
