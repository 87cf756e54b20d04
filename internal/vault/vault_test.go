package vault

import (
	"testing"

	"memnet/internal/config"
	"memnet/internal/energy"
	"memnet/internal/link"
	"memnet/internal/packet"
	"memnet/internal/sim"
)

// harness wires a quadrant to synthetic router-side endpoints.
type harness struct {
	eng       *sim.Engine
	q         *Quadrant
	toQuad    *link.Direction
	fromQuad  *link.Direction
	responses []*packet.Packet
	meter     *energy.Meter
}

func newHarness(t *testing.T, tech config.MemTech, maxInflight int) *harness {
	t.Helper()
	eng := sim.NewEngine()
	sys := config.Default()
	h := &harness{eng: eng, meter: energy.NewMeter(sys.Energy)}

	intCfg := link.Config{
		BandwidthBps:  2 * sys.LinkBandwidthBps(),
		SerDesLatency: 0,
		QueueDepth:    8,
		Credits:       8,
	}
	h.toQuad = link.New(eng, intCfg, nil)
	h.fromQuad = link.New(eng, intCfg, nil)

	h.q = New(eng, Config{
		Tech:        tech,
		Timing:      sys.Timing(tech),
		Index:       1,
		ExtPorts:    4,
		Penalty:     sys.WrongQuadrantPenalty,
		Banks:       8,
		MaxInflight: maxInflight,
		BankMap: func(a uint64) (int, int64) {
			return int(a/64) % 8, int64(a / 64 / 8)
		},
		ReturnDist: func(p *packet.Packet) int { return 3 },
		Meter:      h.meter,
	})
	quadIn := link.NewBuffer(8, h.toQuad.ReturnCredit)
	h.q.Attach(quadIn, h.fromQuad)
	h.toQuad.SetDeliver(h.q.Deliver())

	// The "router side" consumes responses immediately.
	h.fromQuad.SetDeliver(func(p *packet.Packet) {
		h.responses = append(h.responses, p)
		h.fromQuad.ReturnCredit(packet.VCOf(p.Kind))
	})
	return h
}

func (h *harness) send(id uint64, kind packet.Kind, addr uint64, enterPort int8) {
	p := &packet.Packet{ID: id, Kind: kind, Src: packet.HostNode, Dst: 5,
		Addr: addr, EnterPort: enterPort, Injected: h.eng.Now()}
	h.toQuad.Send(p)
}

func TestReadRoundTrip(t *testing.T) {
	h := newHarness(t, config.DRAM, 4)
	h.send(1, packet.ReadReq, 0x40, 1) // right quadrant (index 1)
	h.eng.Run()
	if len(h.responses) != 1 {
		t.Fatalf("responses = %d", len(h.responses))
	}
	r := h.responses[0]
	if r.Kind != packet.ReadResp {
		t.Fatalf("kind = %v", r.Kind)
	}
	if r.Src != 5 || r.Dst != packet.HostNode {
		t.Fatal("response addressing wrong")
	}
	if r.Distance != 3 {
		t.Fatalf("return distance = %d", r.Distance)
	}
	if r.MemLatency <= 0 || r.DepartedMem <= r.ArrivedMem {
		t.Fatal("memory timestamps not set")
	}
	s := h.q.Stats()
	if s.Reads != 1 || s.Writes != 0 || s.WrongQuad != 0 {
		t.Fatalf("stats %+v", s)
	}
}

func TestWrongQuadrantPenalty(t *testing.T) {
	right := newHarness(t, config.DRAM, 4)
	right.send(1, packet.ReadReq, 0x40, 1)
	right.eng.Run()

	wrong := newHarness(t, config.DRAM, 4)
	wrong.send(1, packet.ReadReq, 0x40, 2) // entered via another quadrant's link
	wrong.eng.Run()

	if wrong.q.Stats().WrongQuad != 1 {
		t.Fatal("wrong-quadrant access not counted")
	}
	d := wrong.responses[0].MemLatency - right.responses[0].MemLatency
	if d != sim.Nanosecond {
		t.Fatalf("penalty = %v, want 1ns", d)
	}
}

func TestWriteAck(t *testing.T) {
	h := newHarness(t, config.DRAM, 4)
	h.send(1, packet.WriteReq, 0x80, 1)
	h.eng.Run()
	if len(h.responses) != 1 || h.responses[0].Kind != packet.WriteAck {
		t.Fatal("write not acknowledged")
	}
	if h.q.Stats().Writes != 1 {
		t.Fatal("write not counted")
	}
	bs := h.q.BankStats()
	if bs.Writes != 1 {
		t.Fatalf("bank writes = %d", bs.Writes)
	}
}

func TestInflightWindowBackpressure(t *testing.T) {
	h := newHarness(t, config.DRAM, 2)
	// 6 reads to the same bank: they serialize at the bank; the window
	// of 2 plus queue must still complete all of them.
	for i := 0; i < 6; i++ {
		h.send(uint64(i+1), packet.ReadReq, 0x40, 1)
	}
	h.eng.Run()
	if len(h.responses) != 6 {
		t.Fatalf("responses = %d, want 6", len(h.responses))
	}
	// Same-bank accesses must be strictly serialized: response times
	// strictly increasing with at least a row-hit gap.
	for i := 1; i < 6; i++ {
		if h.responses[i].DepartedMem <= h.responses[i-1].DepartedMem {
			t.Fatal("bank accesses overlapped")
		}
	}
}

func TestEnergyAccounting(t *testing.T) {
	h := newHarness(t, config.NVM, 4)
	h.send(1, packet.ReadReq, 0x40, 1)
	h.send(2, packet.WriteReq, 0x1000, 1)
	h.eng.Run()
	rep := h.meter.Report()
	wantRead := float64(AccessBits) * 12   // NVM read 12 pJ/bit
	wantWrite := float64(AccessBits) * 120 // NVM write 120 pJ/bit
	if rep.ReadPJ != wantRead {
		t.Fatalf("read energy %v, want %v", rep.ReadPJ, wantRead)
	}
	if rep.WritePJ != wantWrite {
		t.Fatalf("write energy %v, want %v", rep.WritePJ, wantWrite)
	}
}

func TestNVMSlowerThanDRAM(t *testing.T) {
	d := newHarness(t, config.DRAM, 4)
	d.send(1, packet.ReadReq, 0x40, 1)
	d.eng.Run()
	n := newHarness(t, config.NVM, 4)
	n.send(1, packet.ReadReq, 0x40, 1)
	n.eng.Run()
	if n.responses[0].MemLatency <= d.responses[0].MemLatency {
		t.Fatalf("NVM read (%v) not slower than DRAM (%v)",
			n.responses[0].MemLatency, d.responses[0].MemLatency)
	}
}

func TestQueueWaitAccounting(t *testing.T) {
	h := newHarness(t, config.DRAM, 1)
	for i := 0; i < 4; i++ {
		h.send(uint64(i+1), packet.ReadReq, uint64(i)*64, 1)
	}
	h.eng.Run()
	if h.q.Stats().QueueWait <= 0 {
		t.Fatal("queue wait should accumulate with a window of 1")
	}
	if h.q.Stats().ServiceTime <= 0 {
		t.Fatal("service time should accumulate")
	}
}

// TestInitTwicePanics: initializing a quadrant a second time panics and
// leaves it serving requests.
func TestInitTwicePanics(t *testing.T) {
	h := newHarness(t, config.DRAM, 4)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("second Init did not panic")
			}
		}()
		h.q.Init(h.eng, Config{Tech: config.NVM, Index: 3}, nil, nil)
	}()
	h.send(1, packet.ReadReq, 0x40, 1)
	h.eng.Run()
	if len(h.responses) != 1 || h.q.Tech() != config.DRAM {
		t.Fatalf("after the panic: %d responses, tech %v", len(h.responses), h.q.Tech())
	}
}
