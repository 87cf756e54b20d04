package link

import (
	"testing"

	"memnet/internal/config"
	"memnet/internal/packet"
	"memnet/internal/sim"
)

func testCfg() Config {
	return Config{
		BandwidthBps:  240e9,
		SerDesLatency: 2 * sim.Nanosecond,
		QueueDepth:    4,
		Credits:       4,
		CountHop:      true,
	}
}

type countMeter struct{ bits uint64 }

func (m *countMeter) Hop(bits int) { m.bits += uint64(bits) }

func mkPacket(id uint64, kind packet.Kind) *packet.Packet {
	return &packet.Packet{ID: id, Kind: kind, Src: 0, Dst: 1}
}

func TestSerializationAndSerDesLatency(t *testing.T) {
	eng := sim.NewEngine()
	meter := &countMeter{}
	d := New(eng, testCfg(), meter)
	var got *packet.Packet
	var at sim.Time
	d.SetDeliver(func(p *packet.Packet) { got, at = p, eng.Now() })
	p := mkPacket(1, packet.ReadResp) // 640 bits
	d.Send(p)
	eng.Run()
	if got != p {
		t.Fatal("packet not delivered")
	}
	want := sim.BitTime(640, 240e9) + 2*sim.Nanosecond
	if at != want {
		t.Fatalf("arrived at %v, want %v", at, want)
	}
	if p.Hops != 1 {
		t.Fatalf("hops = %d", p.Hops)
	}
	if meter.bits != 640 {
		t.Fatalf("meter bits = %d", meter.bits)
	}
}

func TestWireSerializesPackets(t *testing.T) {
	eng := sim.NewEngine()
	d := New(eng, testCfg(), nil)
	var arrivals []sim.Time
	d.SetDeliver(func(p *packet.Packet) { arrivals = append(arrivals, eng.Now()) })
	d.Send(mkPacket(1, packet.ReadResp))
	d.Send(mkPacket(2, packet.ReadResp))
	eng.Run()
	ser := sim.BitTime(640, 240e9)
	if len(arrivals) != 2 {
		t.Fatal("both packets must arrive")
	}
	if arrivals[1]-arrivals[0] != ser {
		t.Fatalf("spacing %v, want serialization %v", arrivals[1]-arrivals[0], ser)
	}
}

func TestResponsePriority(t *testing.T) {
	eng := sim.NewEngine()
	d := New(eng, testCfg(), nil)
	var order []packet.Kind
	d.SetDeliver(func(p *packet.Packet) { order = append(order, p.Kind) })
	// Enqueue requests first, then a response; the response must win the
	// next arbitration even though it arrived later.
	d.Send(mkPacket(1, packet.ReadReq))
	d.Send(mkPacket(2, packet.ReadReq))
	d.Send(mkPacket(3, packet.ReadResp))
	eng.Run()
	// First request is already on the wire when the response arrives, so
	// the order is req, resp, req.
	want := []packet.Kind{packet.ReadReq, packet.ReadResp, packet.ReadReq}
	for i, k := range want {
		if order[i] != k {
			t.Fatalf("order %v, want %v", order, want)
		}
	}
}

func TestNoVCPriorityRoundRobins(t *testing.T) {
	eng := sim.NewEngine()
	cfg := testCfg()
	cfg.NoVCPriority = true
	d := New(eng, cfg, nil)
	var order []packet.Kind
	d.SetDeliver(func(p *packet.Packet) { order = append(order, p.Kind) })
	d.Send(mkPacket(1, packet.ReadReq))
	d.Send(mkPacket(2, packet.ReadReq))
	d.Send(mkPacket(3, packet.ReadResp))
	d.Send(mkPacket(4, packet.ReadResp))
	eng.Run()
	// Round-robin alternates VCs after the head-start: expect some
	// interleaving rather than strict response-first.
	if len(order) != 4 {
		t.Fatal("lost packets")
	}
	if order[1] == packet.ReadResp && order[2] == packet.ReadResp {
		t.Fatalf("NoVCPriority still prioritized responses: %v", order)
	}
}

func TestCreditExhaustion(t *testing.T) {
	eng := sim.NewEngine()
	cfg := testCfg()
	cfg.Credits = 2
	d := New(eng, cfg, nil)
	delivered := 0
	d.SetDeliver(func(p *packet.Packet) { delivered++ })
	for i := 0; i < 4; i++ {
		d.Send(mkPacket(uint64(i), packet.ReadReq))
	}
	eng.Run()
	if delivered != 2 {
		t.Fatalf("delivered %d with 2 credits, want 2", delivered)
	}
	if d.Stats().CreditStall == 0 {
		t.Fatal("credit stall not recorded")
	}
	// Returning credits resumes transmission.
	d.ReturnCredit(packet.VCRequest)
	d.ReturnCredit(packet.VCRequest)
	eng.Run()
	if delivered != 4 {
		t.Fatalf("delivered %d after credit return, want 4", delivered)
	}
}

func TestQueueDepthAndOnSpace(t *testing.T) {
	eng := sim.NewEngine()
	cfg := testCfg()
	cfg.QueueDepth = 2
	d := New(eng, cfg, nil)
	d.SetDeliver(func(p *packet.Packet) {})
	spaces := 0
	d.SetOnSpace(func(vc packet.VC) { spaces++ })
	d.Send(mkPacket(1, packet.ReadReq))
	if !d.CanAccept(packet.VCRequest) {
		t.Fatal("queue should have space (first left immediately)")
	}
	d.Send(mkPacket(2, packet.ReadReq))
	d.Send(mkPacket(3, packet.ReadReq))
	eng.Run()
	if spaces == 0 {
		t.Fatal("OnSpace never fired")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("overflow must panic")
		}
	}()
	for i := 0; i < 10; i++ {
		d.Send(mkPacket(uint64(10+i), packet.ReadReq))
	}
}

func TestCountHopFalse(t *testing.T) {
	eng := sim.NewEngine()
	cfg := testCfg()
	cfg.CountHop = false
	meter := &countMeter{}
	d := New(eng, cfg, meter)
	p := mkPacket(1, packet.ReadReq)
	d.SetDeliver(func(*packet.Packet) {})
	d.Send(p)
	eng.Run()
	if p.Hops != 0 || meter.bits != 0 {
		t.Fatal("internal connection must not count hops or energy")
	}
}

func TestStatsAccounting(t *testing.T) {
	eng := sim.NewEngine()
	d := New(eng, testCfg(), nil)
	d.SetDeliver(func(*packet.Packet) {})
	d.Send(mkPacket(1, packet.ReadReq))
	d.Send(mkPacket(2, packet.ReadResp))
	eng.Run()
	s := d.Stats()
	if s.Sent[packet.VCRequest] != 1 || s.Sent[packet.VCResponse] != 1 {
		t.Fatalf("sent %v", s.Sent)
	}
	if s.BitsSent != 128+640 {
		t.Fatalf("bits = %d", s.BitsSent)
	}
	if s.BusyTime != sim.BitTime(128, 240e9)+sim.BitTime(640, 240e9) {
		t.Fatalf("busy = %v", s.BusyTime)
	}
}

func TestCreditOverflowPanics(t *testing.T) {
	eng := sim.NewEngine()
	d := New(eng, testCfg(), nil)
	defer func() {
		if recover() == nil {
			t.Fatal("expected credit overflow panic")
		}
	}()
	d.ReturnCredit(packet.VCRequest)
}

func TestBuffer(t *testing.T) {
	eng := sim.NewEngine()
	credits := map[packet.VC]int{}
	b := NewBuffer(2, func(vc packet.VC) { credits[vc]++ })
	p1 := mkPacket(1, packet.ReadReq)
	p2 := mkPacket(2, packet.ReadReq)
	b.Push(p1, 0)
	b.Push(p2, 0)
	if b.Len(packet.VCRequest) != 2 {
		t.Fatal("len")
	}
	if b.Head(packet.VCRequest) != p1 {
		t.Fatal("head")
	}
	got := b.Pop(packet.VCRequest, 10)
	if got != p1 || credits[packet.VCRequest] != 1 {
		t.Fatal("pop/credit")
	}
	if b.TotalWait() != 10 || b.MeanWait() != 10 {
		t.Fatalf("wait accounting: total=%v mean=%v", b.TotalWait(), b.MeanWait())
	}
	if b.Head(packet.VCResponse) != nil {
		t.Fatal("empty vc head should be nil")
	}
	_ = eng
	// Overflow panics.
	b.Push(mkPacket(3, packet.ReadReq), 0)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("push overflow must panic")
			}
		}()
		b.Push(mkPacket(4, packet.ReadReq), 0)
	}()
	// Pop from empty panics.
	defer func() {
		if recover() == nil {
			t.Fatal("empty pop must panic")
		}
	}()
	b.Pop(packet.VCResponse, 0)
}

func TestNewValidatesBandwidthAndLatency(t *testing.T) {
	for _, tc := range []struct {
		name string
		mut  func(*Config)
	}{
		{"zero bandwidth", func(c *Config) { c.BandwidthBps = 0 }},
		{"negative bandwidth", func(c *Config) { c.BandwidthBps = -1 }},
		{"negative serdes", func(c *Config) { c.SerDesLatency = -sim.Nanosecond }},
		{"credits beyond MaxBufferPackets", func(c *Config) { c.Credits = config.MaxBufferPackets + 1 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testCfg()
			tc.mut(&cfg)
			defer func() {
				if recover() == nil {
					t.Fatalf("%s accepted", tc.name)
				}
			}()
			New(sim.NewEngine(), cfg, nil)
		})
	}
	// Zero SerDes latency is a legal (idealized) link.
	cfg := testCfg()
	cfg.SerDesLatency = 0
	New(sim.NewEngine(), cfg, nil)
}

// TestCreditStallCountedOncePerPacket: a credit-starved head packet is
// one stall no matter how many times pump re-probes it; the counter
// advances only when a new packet is deferred.
func TestCreditStallCountedOncePerPacket(t *testing.T) {
	eng := sim.NewEngine()
	cfg := testCfg()
	cfg.Credits = 1
	d := New(eng, cfg, nil)
	d.SetDeliver(func(*packet.Packet) {})
	d.Send(mkPacket(1, packet.ReadReq)) // consumes the only credit
	d.Send(mkPacket(2, packet.ReadReq)) // will stall at the head
	eng.Run()
	if got := d.Stats().CreditStall; got != 1 {
		t.Fatalf("CreditStall = %d after first deferral, want 1", got)
	}
	// More sends re-probe the starved VC; the stuck head must not recount.
	d.Send(mkPacket(3, packet.ReadReq))
	eng.Run()
	if got := d.Stats().CreditStall; got != 1 {
		t.Fatalf("CreditStall = %d after pump re-probes, want still 1", got)
	}
	// Freeing the head lets packet 2 go; packet 3 then stalls — a new
	// deferred packet, so the counter advances exactly once more.
	d.ReturnCredit(packet.VCRequest)
	eng.Run()
	if got := d.Stats().CreditStall; got != 2 {
		t.Fatalf("CreditStall = %d after second deferral, want 2", got)
	}
}

// TestNoVCPriorityStarvedVCSkipped: the round-robin arbiter must skip a
// VC that has traffic but no credits and keep serving the other VC.
func TestNoVCPriorityStarvedVCSkipped(t *testing.T) {
	eng := sim.NewEngine()
	cfg := testCfg()
	cfg.NoVCPriority = true
	cfg.Credits = 2
	d := New(eng, cfg, nil)
	var order []packet.Kind
	d.SetDeliver(func(p *packet.Packet) { order = append(order, p.Kind) })
	// Exhaust response credits.
	d.Send(mkPacket(1, packet.ReadResp))
	d.Send(mkPacket(2, packet.ReadResp))
	eng.Run()
	// A starved response plus two requests: round-robin must hand the
	// wire to the request VC both times.
	d.Send(mkPacket(3, packet.ReadResp))
	d.Send(mkPacket(4, packet.ReadReq))
	d.Send(mkPacket(5, packet.ReadReq))
	eng.Run()
	want := []packet.Kind{packet.ReadResp, packet.ReadResp, packet.ReadReq, packet.ReadReq}
	if len(order) != len(want) {
		t.Fatalf("delivered %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("delivered %v, want %v", order, want)
		}
	}
	if d.QueueLen(packet.VCResponse) != 1 {
		t.Fatal("starved response left the queue")
	}
	// Returning a response credit releases the held packet.
	d.ReturnCredit(packet.VCResponse)
	eng.Run()
	if len(order) != 5 || order[4] != packet.ReadResp {
		t.Fatalf("held response not released: %v", order)
	}
}

// TestCreditOverflowAfterTraffic: a double credit return after real
// traffic (credits back at the cap) must panic, not silently mint flow
// control.
func TestCreditOverflowAfterTraffic(t *testing.T) {
	eng := sim.NewEngine()
	d := New(eng, testCfg(), nil)
	d.SetDeliver(func(*packet.Packet) {})
	d.Send(mkPacket(1, packet.ReadReq))
	eng.Run()
	d.ReturnCredit(packet.VCRequest) // back to the cap
	defer func() {
		if recover() == nil {
			t.Fatal("expected credit overflow panic")
		}
	}()
	d.ReturnCredit(packet.VCRequest)
}

// TestInitTwicePanics: initializing a Direction or a Buffer a second
// time panics and leaves it working. Zeroing a direction would unlink
// its pump wakeup from the engine.
func TestInitTwicePanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	eng := sim.NewEngine()
	d := New(eng, testCfg(), nil)
	b := NewBuffer(2, nil)
	d.SetReceiver(receiverFunc(func(p *packet.Packet) { b.Push(p, eng.Now()) }))
	d.Send(mkPacket(1, packet.ReadReq))
	eng.Run()
	mustPanic("Direction.Init", func() { d.Init(eng, testCfg(), nil) })
	mustPanic("Buffer.Init", func() { b.Init(1, d) })
	var zero Direction
	mustPanic("Direction.Init with a bad config", func() { zero.Init(eng, Config{}, nil) })
	d.Send(mkPacket(2, packet.ReadReq))
	eng.Run()
	if b.Len(packet.VCRequest) != 2 || d.Credits(packet.VCRequest) != testCfg().Credits-2 {
		t.Fatalf("after the panics: %d buffered, %d credits", b.Len(packet.VCRequest), d.Credits(packet.VCRequest))
	}
}

// TestFaultFreeSteadyState drives a direction through sends on both
// VCs, credit stalls, credit returns from its receiver's buffer and
// pumps, with the fault calls a fault-free build makes (a nil model, a
// re-bind), and checks that it never makes a fault record and that its
// steady state allocates nothing.
func TestFaultFreeSteadyState(t *testing.T) {
	eng := sim.NewEngine()
	cfg := testCfg()
	cfg.Credits = 2 // fewer credits than queue slots: heads stall
	d := New(eng, cfg, nil)
	d.AttachFault(nil)
	d.Rebind()
	buf := NewBuffer(cfg.Credits, d.ReturnCredit)
	d.SetReceiver(receiverFunc(func(p *packet.Packet) { buf.Push(p, eng.Now()) }))
	free := make([]*packet.Packet, 0, 2*(cfg.QueueDepth+cfg.Credits))
	for i := 0; i < cap(free); i++ {
		free = append(free, mkPacket(uint64(i), packet.ReadReq))
	}
	kinds := [packet.NumVCs][2]packet.Kind{
		packet.VCRequest:  {packet.ReadReq, packet.WriteReq},
		packet.VCResponse: {packet.ReadResp, packet.WriteAck},
	}
	delivered, n := 0, 0
	step := func() {
		for vc := packet.VC(0); vc < packet.NumVCs; vc++ {
			for d.CanAccept(vc) && len(free) > 0 {
				p := free[len(free)-1]
				free = free[:len(free)-1]
				n++
				p.Kind = kinds[vc][n%2]
				d.Send(p)
			}
		}
		eng.RunUntil(eng.Now() + 3*sim.Nanosecond)
		for vc := packet.VC(0); vc < packet.NumVCs; vc++ {
			for buf.Len(vc) > 0 {
				free = append(free, buf.Pop(vc, eng.Now()))
				delivered++
			}
		}
	}
	if allocs := testing.AllocsPerRun(200, step); allocs != 0 {
		t.Errorf("%v allocations per step, want 0", allocs)
	}
	st := d.Stats()
	if delivered < 200 || st.CreditStall == 0 || st.Sent[packet.VCRequest] == 0 || st.Sent[packet.VCResponse] == 0 {
		t.Fatalf("%d delivered, stats %+v: want traffic on both VCs and credit stalls", delivered, st)
	}
	if d.fs != nil || d.HasFaults() {
		t.Fatal("a fault-free direction made a fault record")
	}
	if st.CRCErrors+st.Retries+st.Dropped+st.Retrains != 0 || d.RetryLen() != 0 || d.HealedBits() != 0 {
		t.Fatalf("fault counters moved on a fault-free direction: %+v", st)
	}
}
