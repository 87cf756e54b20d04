// Package link models the point-to-point SerDes channels that connect
// memory cubes to each other and to the host, including the behaviors the
// paper identifies as first-order: finite serialization bandwidth (16
// lanes x 15 Gbps per direction), a fixed 2 ns SerDes latency per
// traversal, credit-based flow control against finite receiver buffers,
// and two virtual channels with responses strictly prioritized over
// requests (the deadlock-avoidance rule that backs requests up behind
// responses, Section 3.2).
//
// A physical link is a pair of independent Directions. The same Direction
// type also models cube-internal connections (router <-> vault quadrant,
// interposer traces inside a MetaCube) with different constants.
package link

import (
	"fmt"

	"memnet/internal/config"
	"memnet/internal/fault"
	"memnet/internal/packet"
	"memnet/internal/sim"
)

// Meter receives a callback per completed hop for energy accounting.
type Meter interface {
	Hop(bits int)
}

// nopMeter is used when no energy accounting is attached.
type nopMeter struct{}

func (nopMeter) Hop(int) {}

// Receiver takes each packet a Direction lands at its far end: a router
// port, a vault quadrant, the host.
type Receiver interface {
	Receive(p *packet.Packet)
}

// receiverFunc adapts a function to a Receiver.
type receiverFunc func(p *packet.Packet)

// Receive calls f(p).
func (f receiverFunc) Receive(p *packet.Packet) { f(p) }

// SpaceListener is told whenever a slot frees in a Direction's output
// queue, so the component feeding it can resume.
type SpaceListener interface {
	OnSpace(vc packet.VC)
}

// spaceFunc adapts a function to a SpaceListener.
type spaceFunc func(vc packet.VC)

// OnSpace calls f(vc).
func (f spaceFunc) OnSpace(vc packet.VC) { f(vc) }

// CreditReturner takes back one receiver-buffer slot of a VC. A
// *Direction is one: a Buffer returns its credits to the Direction that
// fills it.
type CreditReturner interface {
	ReturnCredit(vc packet.VC)
}

// creditFunc adapts a function to a CreditReturner.
type creditFunc func(vc packet.VC)

// ReturnCredit calls f(vc).
func (f creditFunc) ReturnCredit(vc packet.VC) { f(vc) }

// Config are the constants of one direction.
type Config struct {
	// BandwidthBps is the serialization bandwidth in bits per second.
	BandwidthBps int64
	// SerDesLatency is added once per traversal after serialization.
	SerDesLatency sim.Time
	// QueueDepth bounds the per-VC output queue on the sending side.
	QueueDepth int
	// Credits is the per-VC receiver buffer depth this direction may
	// consume; transmission of a packet requires (and consumes) one. At
	// most config.MaxBufferPackets.
	Credits int
	// NoVCPriority disables the default response-over-request
	// prioritization, falling back to round-robin between VCs. Used by
	// ablation experiments.
	NoVCPriority bool
	// CountHop controls whether traversals are charged network energy
	// and counted in Packet.Hops. True for package-to-package links,
	// false for cube-internal router<->vault connections.
	CountHop bool
}

// Stats aggregates per-direction counters.
type Stats struct {
	Sent        [packet.NumVCs]uint64
	BitsSent    uint64
	QueueWait   sim.Time // total time packets spent in the output queue
	BusyTime    sim.Time // wire occupancy
	CreditStall uint64   // packets deferred at least once for lack of credit
	CRCErrors   uint64   // transmissions corrupted in flight (failed CRC)
	Retries     uint64   // retransmissions out of the retry buffer
	Dropped     uint64   // packets abandoned after exhausting MaxRetries
	Retrains    uint64   // completed retraining cycles (returns to service)
}

// State is a direction's service state. A failed direction moves
// Up -> Down (Fail), holds Down until the physical repair lands, then
// retrains (BeginRetrain) for a configured sim-time window before
// CompleteRetrain returns it to service. Down and Retraining both
// accept and transmit nothing; they are distinct so observability can
// tell a dead link from one coming back.
type State uint8

const (
	// Up is the normal in-service state.
	Up State = iota
	// Down is a failed direction awaiting repair.
	Down
	// Retraining is the recovery window between repair and service.
	Retraining
)

// String renders the state for logs and gauges.
func (s State) String() string {
	switch s {
	case Up:
		return "up"
	case Down:
		return "down"
	case Retraining:
		return "retraining"
	}
	return fmt.Sprintf("State(%d)", uint8(s))
}

// Direction is one half of a full-duplex link: a bounded per-VC output
// queue, a serially-reusable wire, and a credit counter for the remote
// input buffer.
//
// A Direction holds only what every transmission touches. What only a
// faulted direction needs lives in a separate Faults record, which a
// direction has only once it is given a CRC fault model (AttachFault),
// fails (Fail) or down-binds (Downbind). Most directions of a network,
// the cube-internal router<->vault connections, never have one.
type Direction struct {
	eng   *sim.Engine
	cfg   Config
	meter Meter

	wire sim.Resource
	// queue holds each VC's waiting packets, stamped with their enqueue
	// time.
	queue [packet.NumVCs]packet.Queue
	// landing holds the packets on the wire, in the order they land:
	// the wire is serial and the SerDes latency fixed, so each
	// arriveEvent lands the head.
	landing packet.Queue

	// receiver takes each packet when it lands (after serialization +
	// SerDes latency). Wired by the owning node.
	receiver Receiver
	// onSpace, if set, is told whenever a slot frees in the output
	// queue of the given VC, letting the upstream router resume moving
	// packets out of its input buffers.
	onSpace SpaceListener

	// pumpWake is the wire-free pump deferred when nothing is left to
	// send: fired untouched it would only clear pumpScheduled.
	pumpWake sim.Wakeup

	// credits holds each VC's transmit credits, in [0, cfg.Credits].
	credits [packet.NumVCs]int32
	// outstanding counts, per VC, packets launched toward the receiver
	// whose credit will eventually come back via ReturnCredit (in
	// flight on the wire or parked in the remote input buffer), in
	// [0, cfg.Credits]. It is what CompleteRetrain subtracts when it
	// re-arms the credit counters, so stale returns arriving after
	// recovery cannot overflow them.
	outstanding [packet.NumVCs]int32

	// pumpEvents counts pump events in the queue: at most one wire-free
	// pump plus one per retry-buffer entry, and each entry holds a
	// credit. pumpEvent clears pumpScheduled whichever pump fires, so a
	// CRC retry-ready pump landing before a pending wire-free pump lets
	// a second wire-free pump be scheduled: pump events can overlap, and
	// the wire-free pump is deferred (pumpWake) only when none is
	// queued.
	pumpEvents    int32
	pumpScheduled bool
	lastVC        packet.VC // round-robin state when NoVCPriority
	// state is the service-state machine. Its only transitions are
	// up->down (Fail), down->retraining (BeginRetrain) and
	// retraining->up (CompleteRetrain), each guarded by a panic.
	state State
	// stalled has bit vc set while VC vc's head packet has already been
	// counted in Stats.CreditStall, so pump re-probes don't inflate the
	// counter; the bit clears when that VC next transmits.
	stalled uint8

	// fs is the fault record, nil until the direction needs one.
	fs *Faults

	// onShip, when set (SetOnShip), observes every transmission that
	// will land: enq/pop bound the output-queue residence, start/end the
	// final wire occupancy (start > pop only after CRC retries). The
	// span tracer arms it; nil keeps the transmit path hook-free.
	onShip func(p *packet.Packet, enq, pop, start, end sim.Time)

	stats trafficStats
}

// trafficStats are the counters every transmission updates: the part
// of Stats a fault-free direction moves.
type trafficStats struct {
	Sent        [packet.NumVCs]uint64
	BitsSent    uint64
	QueueWait   sim.Time
	BusyTime    sim.Time
	CreditStall uint64
}

// Faults is the part of a Direction that only a faulted direction
// needs: the CRC fault model and the retry buffer it fills, the
// bandwidth a down-bound or retrained direction re-binds to, and the
// fault counters. A Direction makes its own when it first needs one,
// unless given one first (SetFaults).
type Faults struct {
	// flt, when non-nil, injects CRC failures on every transmission; the
	// corrupted packet is held in retryQ (the HMC-style link retry
	// buffer) and retransmitted after an ack round-trip plus exponential
	// backoff. Nil keeps the hot path schedule-identical to a fault-free
	// link.
	flt    *fault.LinkFault
	retryQ []retryEntry
	// origBps is the full-width serialization bandwidth the direction
	// had when it took the record, which only a down-bind changes;
	// retraining and flap recovery re-bind to it.
	origBps int64
	// healedBits counts bits sent after the direction's first
	// completed retraining — the route-back evidence FaultCounters
	// exposes as HealedBits.
	healedBits uint64

	crcErrors, retries, dropped, retrains uint64
}

// retryEntry is one packet parked in the retry buffer. It still holds
// the receiver credit consumed by its first transmission, so the remote
// buffer slot stays reserved until delivery or drop.
type retryEntry struct {
	p        *packet.Packet
	vc       packet.VC
	bits     int
	attempts int // transmissions so far
	readyAt  sim.Time
	// enq/pop carry the original queue residence bounds across retries
	// so onShip can attribute the full traversal on final delivery.
	enq, pop sim.Time
}

// New returns a Direction. Its receiver must be wired before the first
// Send.
func New(eng *sim.Engine, cfg Config, meter Meter) *Direction {
	d := new(Direction)
	d.Init(eng, cfg, meter)
	return d
}

// Init makes the zero Direction d ready for use, as New does, so that a
// network can lay out all its directions in one slice. It panics if d
// was already initialized: d's pump wakeup is linked into eng.
func (d *Direction) Init(eng *sim.Engine, cfg Config, meter Meter) {
	if d.eng != nil {
		panic("link: Direction initialized twice")
	}
	if cfg.QueueDepth <= 0 || cfg.Credits <= 0 {
		panic(fmt.Sprintf("link: non-positive queue depth %d or credits %d",
			cfg.QueueDepth, cfg.Credits))
	}
	if cfg.Credits > config.MaxBufferPackets {
		panic(fmt.Sprintf("link: %d credits, more than %d", cfg.Credits, config.MaxBufferPackets))
	}
	if cfg.BandwidthBps <= 0 {
		panic(fmt.Sprintf("link: non-positive bandwidth %d bps", cfg.BandwidthBps))
	}
	if cfg.SerDesLatency < 0 {
		panic(fmt.Sprintf("link: negative SerDes latency %v", cfg.SerDesLatency))
	}
	if meter == nil {
		meter = nopMeter{}
	}
	d.eng, d.cfg, d.meter = eng, cfg, meter
	for vc := range d.credits {
		d.credits[vc] = int32(cfg.Credits)
	}
	d.pumpWake.Init(eng)
}

// SetFaults gives d the zero record f to hold its fault state, so that
// a network can lay out the records of all the directions that may
// fault in one slice. It panics if d is not initialized or already has
// a record.
func (d *Direction) SetFaults(f *Faults) {
	if d.eng == nil || d.fs != nil {
		panic("link: fault record for an uninitialized direction or a second one")
	}
	f.origBps = d.cfg.BandwidthBps
	d.fs = f
}

// faults returns d's fault record, making one if d has none.
func (d *Direction) faults() *Faults {
	if d.fs == nil {
		d.SetFaults(new(Faults))
	}
	return d.fs
}

// pumpEvent is every Direction's pump event; its argument is the
// Direction.
func pumpEvent(arg any) {
	d := arg.(*Direction)
	d.pumpEvents--
	d.pumpScheduled = false
	d.pump()
}

// SetReceiver wires the receiver of landed packets.
func (d *Direction) SetReceiver(r Receiver) { d.receiver = r }

// SetDeliver wires a receiver function.
func (d *Direction) SetDeliver(fn func(*packet.Packet)) { d.SetReceiver(receiverFunc(fn)) }

// SetSpaceListener wires the output-queue-space listener.
func (d *Direction) SetSpaceListener(l SpaceListener) { d.onSpace = l }

// SetOnSpace wires an output-queue-space function; nil wires none.
func (d *Direction) SetOnSpace(fn func(packet.VC)) {
	if fn == nil {
		d.SetSpaceListener(nil)
		return
	}
	d.SetSpaceListener(spaceFunc(fn))
}

// SetOnShip wires the span tracer's transmission observer. fn fires
// once per packet that will land at the receiver, with the timestamps
// bounding its output-queue residence [enq,pop), retry-buffer residence
// [pop,start), and wire occupancy [start,end); the packet lands at
// end + SerDesLatency. A nil fn disables the hook.
func (d *Direction) SetOnShip(fn func(p *packet.Packet, enq, pop, start, end sim.Time)) {
	d.onShip = fn
}

// SerDes reports the direction's fixed per-traversal SerDes latency.
func (d *Direction) SerDes() sim.Time { return d.cfg.SerDesLatency }

// AttachFault arms CRC-failure injection on this direction. Call before
// traffic flows; a nil model leaves the direction fault-free and makes
// no fault record.
func (d *Direction) AttachFault(f *fault.LinkFault) {
	if f == nil && d.fs == nil {
		return
	}
	d.faults().flt = f
}

// HasFaults reports whether the direction has a fault record.
func (d *Direction) HasFaults() bool { return d.fs != nil }

// Stats returns a copy of the direction's counters.
func (d *Direction) Stats() Stats {
	s := Stats{
		Sent:        d.stats.Sent,
		BitsSent:    d.stats.BitsSent,
		QueueWait:   d.stats.QueueWait,
		BusyTime:    d.stats.BusyTime,
		CreditStall: d.stats.CreditStall,
	}
	if f := d.fs; f != nil {
		s.CRCErrors, s.Retries, s.Dropped, s.Retrains = f.crcErrors, f.retries, f.dropped, f.retrains
	}
	return s
}

// CanAccept reports whether the output queue of vc has room. A failed
// or retraining direction accepts nothing.
func (d *Direction) CanAccept(vc packet.VC) bool {
	return d.state == Up && d.queue[vc].Len() < d.cfg.QueueDepth
}

// QueueLen reports the occupancy of the vc output queue.
func (d *Direction) QueueLen(vc packet.VC) int { return d.queue[vc].Len() }

// Credits reports the transmit credits currently available for vc.
func (d *Direction) Credits(vc packet.VC) int { return int(d.credits[vc]) }

// RetryLen reports how many packets sit in the retry buffer.
func (d *Direction) RetryLen() int {
	if d.fs == nil {
		return 0
	}
	return len(d.fs.retryQ)
}

// Bandwidth reports the current serialization bandwidth, after any
// down-binding.
func (d *Direction) Bandwidth() int64 { return d.cfg.BandwidthBps }

// VCRoundRobin reports whether response-over-request priority is
// disabled (round-robin between VCs; the single-VC ablation).
func (d *Direction) VCRoundRobin() bool { return d.cfg.NoVCPriority }

// Dead reports whether the direction is out of service (failed or
// still retraining).
func (d *Direction) Dead() bool { return d.state != Up }

// State reports the direction's service state.
func (d *Direction) State() State { return d.state }

// HealedBits reports the bits transmitted since the direction's first
// completed retraining: nonzero exactly when traffic routed back onto
// this direction after a repair.
func (d *Direction) HealedBits() uint64 {
	if d.fs == nil {
		return 0
	}
	return d.fs.healedBits
}

// Downbind halves the serialization bandwidth, modeling an HMC link
// dropping to half width after a SerDes lane failure. Transmissions
// already on the wire finish at the old rate.
func (d *Direction) Downbind() {
	d.faults() // holds the full width Rebind restores
	if d.cfg.BandwidthBps > 1 {
		d.cfg.BandwidthBps /= 2
	}
}

// Rebind restores the full-width serialization bandwidth bound at
// construction — the Up half of a lane flap, where the lane retrains
// while the link keeps running at reduced width. A direction without a
// fault record was never down-bound, so it is at full width already.
func (d *Direction) Rebind() {
	if d.fs != nil {
		d.cfg.BandwidthBps = d.fs.origBps
	}
}

// Fail kills the direction. Every packet waiting in the output queues or
// parked in the retry buffer is handed to drain (for the owning router to
// re-route); packets already serialized onto the wire still land at the
// receiver. After Fail the direction accepts nothing and transmits
// nothing until a BeginRetrain/CompleteRetrain cycle restores it.
func (d *Direction) Fail(drain func(*packet.Packet)) {
	if d.state != Up {
		panic(fmt.Sprintf("link: Fail on a direction already %v", d.state))
	}
	d.state = Down
	f := d.faults() // counts the retraining that restores d
	for vc := range d.queue {
		for d.queue[vc].Len() > 0 {
			p, _ := d.queue[vc].Pop()
			drain(p)
		}
	}
	for _, r := range f.retryQ {
		drain(r.p)
	}
	f.retryQ = nil
}

// BeginRetrain moves a failed direction into the retraining state: the
// physical repair has landed, the SerDes is re-acquiring lane lock,
// and no traffic flows yet.
func (d *Direction) BeginRetrain() {
	if d.state != Down {
		panic(fmt.Sprintf("link: BeginRetrain on a direction that is %v, not down", d.state))
	}
	d.state = Retraining
}

// CompleteRetrain returns a retraining direction to service with fresh
// per-packet state: the full lane set re-binds (restoring the
// construction-time bandwidth), the retry buffer and its exponential
// backoff are gone (Fail drained them), per-VC credit-stall latches
// clear, and the credit counters re-arm to capacity minus the packets
// still outstanding at the receiver — whose eventual ReturnCredits
// then restore full capacity without overflow. Upstream routers are
// notified of the empty output queues (onSpace) so traffic drains back
// onto the healed direction immediately.
func (d *Direction) CompleteRetrain() {
	if d.state != Retraining {
		panic(fmt.Sprintf("link: CompleteRetrain on a direction that is %v, not retraining", d.state))
	}
	f := d.fs // made by Fail
	d.state = Up
	d.cfg.BandwidthBps = f.origBps
	f.retryQ = nil
	f.retrains++
	for vc := packet.VC(0); vc < packet.NumVCs; vc++ {
		d.credits[vc] = int32(d.cfg.Credits) - d.outstanding[vc]
	}
	d.stalled = 0
	if d.onSpace != nil {
		for vc := packet.VC(0); vc < packet.NumVCs; vc++ {
			d.onSpace.OnSpace(vc)
		}
	}
	d.pump()
}

// Send enqueues p for transmission. The caller must have checked
// CanAccept; Send panics on overflow to surface flow-control bugs.
func (d *Direction) Send(p *packet.Packet) {
	if d.state != Up {
		panic(fmt.Sprintf("link: send on %v link for %v", d.state, p))
	}
	vc := packet.VCOf(p.Kind)
	if !d.CanAccept(vc) {
		panic(fmt.Sprintf("link: output queue overflow on %v for %v", vc, p))
	}
	d.queue[vc].Push(p, d.eng.Now())
	d.pump()
}

// ReturnCredit is called by the receiving node when it frees one input
// buffer slot of the given VC.
func (d *Direction) ReturnCredit(vc packet.VC) {
	d.credits[vc]++
	d.outstanding[vc]--
	if int(d.credits[vc]) > d.cfg.Credits || d.outstanding[vc] < 0 {
		panic("link: credit overflow")
	}
	d.pump()
}

// pump attempts to start a transmission now, or schedules a retry when
// the wire frees. Ready retransmissions take the wire before fresh
// queue traffic (they hold receiver credits, so landing them first
// unblocks the most). It is idempotent per simulated instant.
//
// The wire-free pump is deferred rather than queued when nothing is
// left to send and no other pump event is queued: until Send queues a
// packet (the only way work arrives while the wire is busy) it would
// find nothing to do. So pump first settles a deferred one: lapsed, it
// clears pumpScheduled as the event would have; still ahead, it is
// committed once there is something to send.
func (d *Direction) pump() {
	if d.pumpWake.Lapsed() {
		d.pumpScheduled = false
	} else if d.pumpWake.Deferred() && d.hasWork() {
		d.pumpEvents++
		d.pumpWake.Commit(pumpEvent, d)
	}
	if d.state != Up || d.pumpScheduled {
		return
	}
	now := d.eng.Now()
	if !d.wire.Idle(now) {
		d.pumpScheduled = true
		if d.pumpEvents == 0 && !d.hasWork() {
			d.pumpWake.Defer(d.wire.FreeAt())
			return
		}
		d.pumpEvents++
		d.eng.AtArg(d.wire.FreeAt(), pumpEvent, d)
		return
	}
	if d.sendRetry(now) {
		d.pump()
		return
	}
	vc, ok := d.pickVC()
	if !ok {
		return
	}
	d.transmit(vc)
	// Another VC may still have eligible traffic; pump re-runs when the
	// wire frees via the scheduling above on the next call.
	d.pump()
}

// hasWork reports whether a packet waits in an output queue or the
// retry buffer.
func (d *Direction) hasWork() bool {
	return d.queue[packet.VCRequest].Len()+d.queue[packet.VCResponse].Len()+d.RetryLen() > 0
}

// pickVC chooses the next virtual channel to serve: responses first by
// default (the deadlock-avoidance priority), else round-robin.
func (d *Direction) pickVC() (packet.VC, bool) {
	eligible := func(vc packet.VC) bool {
		if d.queue[vc].Len() == 0 {
			return false
		}
		if d.credits[vc] == 0 {
			// One stall per deferred packet: the flag holds until this
			// VC transmits, so pump re-probes of the same stuck head
			// don't recount it.
			if d.stalled&(1<<vc) == 0 {
				d.stalled |= 1 << vc
				d.stats.CreditStall++
			}
			return false
		}
		return true
	}
	if !d.cfg.NoVCPriority {
		if eligible(packet.VCResponse) {
			return packet.VCResponse, true
		}
		if eligible(packet.VCRequest) {
			return packet.VCRequest, true
		}
		return 0, false
	}
	for i := packet.VC(0); i < packet.NumVCs; i++ {
		vc := (d.lastVC + 1 + i) % packet.NumVCs
		if eligible(vc) {
			d.lastVC = vc
			return vc, true
		}
	}
	return 0, false
}

// transmit pops the head of vc and occupies the wire for its
// serialization time; delivery fires after the additional SerDes latency.
func (d *Direction) transmit(vc packet.VC) {
	p, enqueued := d.queue[vc].Pop()
	d.credits[vc]--
	d.stalled &^= 1 << vc

	now := d.eng.Now()
	d.stats.QueueWait += now - enqueued
	bits := p.Kind.Bits()
	ser := sim.BitTime(bits, d.cfg.BandwidthBps)
	_, end := d.wire.Reserve(now, ser)
	d.stats.BusyTime += end - now
	d.stats.Sent[vc]++
	d.stats.BitsSent += uint64(bits)
	if f := d.fs; f != nil && f.retrains > 0 {
		f.healedBits += uint64(bits)
	}

	d.finishTransmit(p, vc, 1, end, bits, enqueued, now)

	if d.onSpace != nil {
		d.onSpace.OnSpace(vc)
	}
}

// finishTransmit resolves one wire occupancy that ends at end: either
// the packet lands after the SerDes latency, or (with a fault model
// attached) its CRC check fails and it parks in the retry buffer. A
// retransmission becomes eligible only after the implicit-ack round
// trip (two SerDes traversals) plus an exponential backoff that doubles
// per consecutive error, capped at 64x.
func (d *Direction) finishTransmit(p *packet.Packet, vc packet.VC, attempts int, end sim.Time, bits int, enq, pop sim.Time) {
	if f := d.fs; f != nil && f.flt != nil && f.flt.Corrupt(bits) {
		f.crcErrors++
		if f.flt.MaxRetries > 0 && attempts > f.flt.MaxRetries {
			f.dropped++
			d.credits[vc]++ // the receiver slot was never filled
			return
		}
		shift := uint(attempts - 1)
		if shift > 6 {
			shift = 6
		}
		readyAt := end + 2*d.cfg.SerDesLatency + f.flt.Backoff<<shift
		f.retryQ = append(f.retryQ, retryEntry{p: p, vc: vc, bits: bits, attempts: attempts, readyAt: readyAt, enq: enq, pop: pop})
		d.pumpEvents++
		d.eng.AtArg(readyAt, pumpEvent, d)
		return
	}
	if d.onShip != nil {
		// The final wire occupancy started when the ending Reserve was
		// taken — at the current instant for both fresh transmissions and
		// retries (the wire was idle when either path reserved it).
		d.onShip(p, enq, pop, d.eng.Now(), end)
	}
	// The transmission will land: its credit is now owed back by the
	// receiver (CompleteRetrain subtracts these when re-arming credits).
	d.outstanding[vc]++
	at := end + d.cfg.SerDesLatency
	d.landing.Push(p, at)
	d.eng.AtArg(at, arriveEvent, d)
}

// sendRetry retransmits the first retry-buffer entry whose backoff has
// elapsed, if any. The wire must be idle. The entry keeps its original
// credit, so no new credit is consumed.
func (d *Direction) sendRetry(now sim.Time) bool {
	f := d.fs
	if f == nil {
		return false
	}
	for i, r := range f.retryQ {
		if r.readyAt > now {
			continue
		}
		n := len(f.retryQ)
		copy(f.retryQ[i:], f.retryQ[i+1:])
		f.retryQ[n-1] = retryEntry{} // drop the vacated slot's packet reference
		f.retryQ = f.retryQ[:n-1]
		ser := sim.BitTime(r.bits, d.cfg.BandwidthBps)
		_, end := d.wire.Reserve(now, ser)
		d.stats.BusyTime += end - now
		f.retries++
		d.stats.BitsSent += uint64(r.bits)
		if f.retrains > 0 {
			f.healedBits += uint64(r.bits)
		}
		d.finishTransmit(r.p, r.vc, r.attempts+1, end, r.bits, r.enq, r.pop)
		return true
	}
	return false
}

// arriveEvent is every Direction's landing event; its argument is the
// Direction. Landings fire in the order their transmissions took the
// wire, so the packet landing is the head of the landing queue.
func arriveEvent(arg any) {
	d := arg.(*Direction)
	p, _ := d.landing.Pop()
	if d.cfg.CountHop {
		p.Hops++
		d.meter.Hop(p.Kind.Bits())
	}
	d.receiver.Receive(p)
}
