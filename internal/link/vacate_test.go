package link

import (
	"testing"

	"memnet/internal/fault"
	"memnet/internal/packet"
	"memnet/internal/sim"
)

// TestVacatedSlotsZeroed: once a packet leaves an output queue, the retry
// buffer or an input buffer, no backing array still points at it — the
// packet may already be back in a pool serving another transaction.
func TestVacatedSlotsZeroed(t *testing.T) {
	eng := sim.NewEngine()
	cfg := testCfg()
	cfg.QueueDepth = 16
	cfg.Credits = 16
	d := New(eng, cfg, nil)
	d.AttachFault(fault.NewLinkFault(42, 1e-3, 0, 8*sim.Nanosecond))
	buf := NewBuffer(16, d.ReturnCredit)
	d.SetDeliver(func(p *packet.Packet) { buf.Push(p, eng.Now()) })
	for i := 0; i < 16; i++ {
		d.Send(mkPacket(uint64(i), packet.ReadReq))
	}
	eng.Run()
	if d.Stats().Retries == 0 {
		t.Fatal("no retransmission exercised the retry buffer")
	}
	for buf.Len(packet.VCRequest) > 0 {
		buf.Pop(packet.VCRequest, eng.Now())
	}
	for vc := range d.queue {
		for i, e := range d.queue[vc][:cap(d.queue[vc])] {
			if e.p != nil {
				t.Errorf("output queue %v slot %d still holds packet %d", packet.VC(vc), i, e.p.ID)
			}
		}
	}
	for i, r := range d.retryQ[:cap(d.retryQ)] {
		if r.p != nil {
			t.Errorf("retry buffer slot %d still holds packet %d", i, r.p.ID)
		}
	}
	for vc := range buf.fifo {
		for i, a := range buf.fifo[vc][:cap(buf.fifo[vc])] {
			if a.p != nil {
				t.Errorf("input buffer %v slot %d still holds packet %d", packet.VC(vc), i, a.p.ID)
			}
		}
	}
}
