// Package host models one APU memory port: it converts a workload's
// transaction stream into request packets, enforces the memory-level
// parallelism window, acts as the coherence ordering point (a read to an
// address with an outstanding write stalls until the write acknowledgment
// returns — the rule that makes the skip list's divergent read/write
// paths safe, §4.2), and implements the §5.3 write-burst hysteresis that
// temporarily re-admits writes to the short (skip) paths.
package host

import (
	"memnet/internal/link"
	"memnet/internal/packet"
	"memnet/internal/sim"
	"memnet/internal/stats"
	"memnet/internal/topology"
	"memnet/internal/workload"
)

// Config parameterizes a port.
type Config struct {
	// MaxOutstanding is the inflight-transaction window.
	MaxOutstanding int
	// HostLatency is the processor-side per-transaction latency; it
	// holds the window slot (and, for writes, the coherence entry)
	// after the response returns, but is not part of network stats.
	HostLatency sim.Time
	// Target is the number of transactions to complete before Done.
	Target uint64

	// ShortcutEnable turns on write-path shortcutting under write bursts
	// (meaningful for the skip list; harmless elsewhere since other
	// topologies route both classes identically).
	ShortcutEnable bool
	// ShortcutHi / ShortcutLo are the engage/release write-fraction
	// watermarks of the hysteresis monitor.
	ShortcutHi, ShortcutLo float64
	// ShortcutWindow is the monitor's sliding window, in transactions.
	ShortcutWindow int

	// WavefrontSize groups read transactions GPU-style: a group's
	// window slots are released only when the whole group has
	// completed, modeling warps that stall on their slowest
	// outstanding load. This makes execution time sensitive to
	// latency tails — the quantity the paper's fairness
	// (distance-based arbitration) work improves. Writes retire
	// individually: stores are off the critical path (§4.2), which is
	// the property the skip list exploits. Zero or one retires
	// everything individually.
	WavefrontSize int
}

// Network is the system-level lookups the port makes for every
// transaction it injects.
type Network interface {
	// HomeOf maps an address to the cube serving it.
	HomeOf(addr uint64) packet.NodeID
	// HostDist returns the hop distance from the host to dst in a class.
	HostDist(dst packet.NodeID, class topology.PathClass) int
}

// Wiring is a Network made of two lookup functions.
type Wiring struct {
	// DestOf maps an address to its destination cube.
	DestOf func(addr uint64) packet.NodeID
	// DistOf returns hop distance from the host to dst in a class.
	DistOf func(dst packet.NodeID, class topology.PathClass) int
}

// HomeOf calls w.DestOf.
func (w Wiring) HomeOf(addr uint64) packet.NodeID { return w.DestOf(addr) }

// HostDist calls w.DistOf.
func (w Wiring) HostDist(dst packet.NodeID, class topology.PathClass) int {
	return w.DistOf(dst, class)
}

// Port is one host memory port driving one memory network.
type Port struct {
	eng *sim.Engine
	cfg Config
	gen workload.Generator
	net Network

	out       *link.Direction
	collector *stats.Collector

	inflight int
	injected uint64
	nextID   uint64

	// wavefront completion tracking (reads only): wfOf maps an
	// in-flight read's packet ID to its group; wfs maps an open group
	// to its injected members (high 32 bits) and outstanding members
	// (low 32 bits); wfNext/wfFill assign arriving reads to groups of
	// WavefrontSize. A group is open while a member is in flight, so
	// both hold at most a window of keys.
	wfOf   table
	wfs    table
	wfNext uint64
	wfFill int

	staged       workload.Tx
	hasStaged    bool
	stagedArrive sim.Time
	lastArrive   sim.Time

	// pool recycles retired transaction packets; seeded with a window
	// of them, injection allocates no packet.
	pool packet.Pool

	// retireFn is retireSlots' event, bound once so that scheduling it
	// allocates nothing; its argument is the slot count. Kick and
	// armTimer schedule the package-level pumpEvent and timerEvent.
	retireFn sim.ArgHandler

	// spanHook, if set (SetSpanHook), observes every injection with the
	// time the transaction waited for a window slot, coherence release,
	// and injection credits — the span tracer's host.window source.
	spanHook func(pk *packet.Packet, wait sim.Time)

	// Coherence ordering point state: writes maps a block to its
	// outstanding writes (a write holds a window slot, so it holds at
	// most a window of keys); stalled holds the reads waiting for a
	// block's writes to drain, oldest first; ready holds released reads,
	// oldest first, for pump to inject before new work.
	writes  table
	stalled []parked
	ready   []parked

	// Write-burst hysteresis monitor.
	recent   []bool
	recentAt int
	recentN  int
	writesIn int
	shortcut bool

	kickPending bool
	timerSet    bool

	// InjectWait accumulates time transactions spent waiting at the
	// outgoing memory port (window, credit, or coherence stalls) — the
	// queuing the paper observes backing up behind prioritized responses.
	InjectWait sim.Time
}

// parked is a transaction held at the port (stalled or ready), with the
// time it arrived.
type parked struct {
	tx     workload.Tx
	arrive sim.Time
}

// New creates a port. gen supplies the workload; net resolves
// destinations and distances; collector receives completions.
func New(eng *sim.Engine, cfg Config, gen workload.Generator, net Network, collector *stats.Collector) *Port {
	if cfg.MaxOutstanding <= 0 {
		panic("host: non-positive window")
	}
	if cfg.ShortcutWindow <= 0 {
		cfg.ShortcutWindow = 64
	}
	p := &Port{
		eng:       eng,
		cfg:       cfg,
		gen:       gen,
		net:       net,
		collector: collector,
		recent:    make([]bool, cfg.ShortcutWindow),
	}
	// The coherence table, and with wavefronts the two wavefront
	// tables, each hold at most a window of keys: carved from one slab
	// sized for that, they never grow in a run.
	window := cfg.MaxOutstanding
	n := tableSlots(window)
	tables := 1
	if cfg.WavefrontSize > 1 {
		tables = 3
	}
	slab := make([]slot, tables*n)
	p.writes.init(slab[:n:n], window)
	if tables == 3 {
		p.wfOf.init(slab[n:2*n:2*n], window)
		p.wfs.init(slab[2*n:], window)
	}
	// The window bounds the packets in flight, so a run whose packets
	// all come back allocates none after this.
	p.pool.Reserve(cfg.MaxOutstanding)
	p.retireFn = func(arg any) {
		p.inflight -= arg.(int)
		p.Kick()
	}
	return p
}

// pumpEvent is every port's injection attempt scheduled by Kick; its
// argument is the Port.
func pumpEvent(arg any) {
	p := arg.(*Port)
	p.kickPending = false
	p.pump()
}

// timerEvent is every port's pump at a staged transaction's arrival
// time, scheduled by armTimer; its argument is the Port.
func timerEvent(arg any) {
	p := arg.(*Port)
	p.timerSet = false
	p.pump()
}

// Attach wires the port's outgoing direction (toward the root cube);
// the port is its space listener.
func (p *Port) Attach(out *link.Direction) {
	p.out = out
	out.SetSpaceListener(p)
}

// OnSpace resumes injection when the outgoing direction frees a slot.
func (p *Port) OnSpace(packet.VC) { p.Kick() }

// SetSpanHook wires the span tracer's injection observer: fn sees every
// packet right after its header is built, with the window/coherence/
// credit wait that preceded injection. Call before the run starts; a
// nil fn disables the hook.
func (p *Port) SetSpanHook(fn func(pk *packet.Packet, wait sim.Time)) { p.spanHook = fn }

// Receive is the arrival callback for the root-cube-to-host direction;
// the host consumes responses immediately (its receive buffering is
// ample), so the caller should return the link credit right after.
// Network statistics are recorded at arrival; the window slot and any
// coherence entry are released only after the processor-side latency.
//
// Receive takes ownership of pk and returns it to the port's packet
// pool: the caller must read any header fields it needs (e.g. the VC for
// the credit return) before calling.
func (p *Port) Receive(pk *packet.Packet) {
	pk.Completed = p.eng.Now()
	p.collector.Complete(pk)
	kind, id, addr := pk.Kind, pk.ID, pk.Addr
	// The transaction is retired: every consumer below works from the
	// copied header fields, so the packet can recycle immediately.
	p.pool.Put(pk)
	// Coherence state releases as soon as the ack is visible at the
	// ordering point, independent of wavefront retirement.
	if kind == packet.WriteAck {
		p.releaseWrite(addr &^ 63)
	}
	if p.cfg.WavefrontSize > 1 {
		if kind == packet.WriteAck {
			// Stores retire individually: they never gate a wavefront.
			p.retireSlots(1)
			return
		}
		if size := p.leaveWavefront(id); size > 0 {
			p.retireSlots(size)
			return
		}
		p.Kick() // coherence release may have unblocked reads
		return
	}
	p.retireSlots(1)
}

// joinWavefront adds the injected read id to the filling wavefront.
func (p *Port) joinWavefront(id uint64) {
	wf := p.wfNext
	*p.wfOf.ref(id) = wf
	*p.wfs.ref(wf) += 1<<32 | 1
	p.wfFill++
	if p.wfFill == p.cfg.WavefrontSize {
		p.wfFill = 0
		p.wfNext++
	}
}

// leaveWavefront retires the completed read id from its wavefront. It
// returns the wavefront's size when id was its last outstanding member,
// which closes it, and 0 otherwise.
func (p *Port) leaveWavefront(id uint64) int {
	wf := p.wfOf.del(id)
	members := p.wfs.ref(wf)
	*members--
	if uint32(*members) > 0 {
		return 0
	}
	size := int(*members >> 32)
	p.wfs.del(wf)
	return size
}

// retireSlots frees n window slots after the processor-side latency.
func (p *Port) retireSlots(n int) {
	if p.cfg.HostLatency > 0 {
		// n is a small int, so boxing it into the event argument is
		// allocation-free (runtime small-integer interning).
		p.eng.ScheduleArg(p.cfg.HostLatency, p.retireFn, n)
		return
	}
	p.inflight -= n
	p.Kick()
}

// releaseWrite clears one outstanding write to blk; the last one moves
// the reads stalled on blk to the ready queue in the order they
// stalled.
func (p *Port) releaseWrite(blk uint64) {
	if n := p.writes.ref(blk); *n > 1 {
		*n--
		return
	}
	p.writes.del(blk)
	kept := p.stalled[:0]
	for _, r := range p.stalled {
		if r.tx.Addr&^63 == blk {
			p.ready = append(p.ready, r)
		} else {
			kept = append(kept, r)
		}
	}
	p.stalled = kept
}

// Done reports whether the port completed its target trace.
func (p *Port) Done() bool { return p.collector.Completed() >= p.cfg.Target }

// WriteShortcut reports whether the hysteresis monitor currently allows
// writes on short paths; the system's route function consults this.
func (p *Port) WriteShortcut() bool { return p.cfg.ShortcutEnable && p.shortcut }

// Inflight reports the current window occupancy (for tests).
func (p *Port) Inflight() int { return p.inflight }

// Injected reports how many transactions have entered the network so
// far (telemetry gauge).
func (p *Port) Injected() uint64 { return p.injected }

// Kick schedules an injection attempt at the current instant.
func (p *Port) Kick() {
	if p.kickPending {
		return
	}
	p.kickPending = true
	p.eng.ScheduleArg(0, pumpEvent, p)
}

// pump injects as many transactions as the window, link credits, arrival
// process, and coherence rules allow.
func (p *Port) pump() {
	for {
		if p.injected >= p.cfg.Target {
			return
		}
		if p.inflight >= p.cfg.MaxOutstanding {
			return
		}
		// Coherence-released reads first: they are the oldest work.
		if len(p.ready) > 0 {
			if !p.out.CanAccept(packet.VCRequest) {
				return
			}
			pr := p.ready[0]
			copy(p.ready, p.ready[1:])
			p.ready = p.ready[:len(p.ready)-1]
			p.inject(pr.tx, pr.arrive)
			continue
		}
		// Stage the next generated transaction (held by value: staging
		// must not allocate per transaction).
		if !p.hasStaged {
			p.staged = p.gen.Next()
			p.hasStaged = true
			p.lastArrive += p.staged.Gap
			p.stagedArrive = p.lastArrive
		}
		now := p.eng.Now()
		if p.stagedArrive > now {
			p.armTimer(p.stagedArrive)
			return
		}
		tx := p.staged
		blk := tx.Addr &^ 63
		if !tx.Write && p.writes.get(blk) > 0 {
			// Directory stall: park the read until the write acks.
			p.stalled = append(p.stalled, parked{tx: tx, arrive: p.stagedArrive})
			p.hasStaged = false
			continue
		}
		if !p.out.CanAccept(packet.VCRequest) {
			return
		}
		p.hasStaged = false
		p.inject(tx, p.stagedArrive)
	}
}

// inject builds and sends the request packet for tx.
func (p *Port) inject(tx workload.Tx, arrive sim.Time) {
	now := p.eng.Now()
	p.InjectWait += now - arrive

	kind := packet.ReadReq
	if tx.Write {
		kind = packet.WriteReq
		*p.writes.ref(tx.Addr &^ 63)++
	}
	p.observe(tx.Write)

	dst := p.net.HomeOf(tx.Addr)
	class := topology.ClassOf(kind, p.WriteShortcut())
	p.nextID++
	pk := p.pool.Get()
	*pk = packet.Packet{
		ID:           p.nextID,
		Kind:         kind,
		Src:          packet.HostNode,
		Dst:          dst,
		Addr:         tx.Addr,
		Distance:     p.net.HostDist(dst, class),
		EnterPort:    -1, // no router ingress yet
		Injected:     now,
		ReadModWrite: tx.RMW,
		Class:        uint8(class),
	}
	p.inflight++
	p.injected++
	if p.spanHook != nil {
		p.spanHook(pk, now-arrive)
	}
	if p.cfg.WavefrontSize > 1 && kind == packet.ReadReq {
		p.joinWavefront(pk.ID)
	}
	p.out.Send(pk)
}

// observe feeds the hysteresis monitor with one injected transaction.
func (p *Port) observe(write bool) {
	if p.recentN == len(p.recent) {
		if p.recent[p.recentAt] {
			p.writesIn--
		}
	} else {
		p.recentN++
	}
	p.recent[p.recentAt] = write
	if write {
		p.writesIn++
	}
	p.recentAt = (p.recentAt + 1) % len(p.recent)

	if p.recentN < len(p.recent)/2 {
		return
	}
	frac := float64(p.writesIn) / float64(p.recentN)
	if !p.shortcut && frac >= p.cfg.ShortcutHi {
		p.shortcut = true
	} else if p.shortcut && frac <= p.cfg.ShortcutLo {
		p.shortcut = false
	}
}

// armTimer schedules a pump at the staged transaction's arrival time.
func (p *Port) armTimer(at sim.Time) {
	if p.timerSet {
		return
	}
	p.timerSet = true
	p.eng.AtArg(at, timerEvent, p)
}
