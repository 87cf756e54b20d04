package link

import (
	"fmt"

	"memnet/internal/fault"
	"memnet/internal/packet"
	"memnet/internal/sim"
)

// refDirection is the direction as it was before its wire-free pump
// could be deferred: every pump is a queued event. FuzzLinkPump drives
// it beside Direction and requires the same behavior. Accessors the
// fuzz does not use are left out.
type refDirection struct {
	eng   *sim.Engine
	cfg   Config
	meter Meter

	wire    sim.Resource
	queue   [packet.NumVCs][]entry
	credits [packet.NumVCs]int

	// deliver is invoked at the receiver when a packet lands (after
	// serialization + SerDes latency). Wired by the owning node.
	deliver func(*packet.Packet)
	// onSpace, if set, is invoked whenever a slot frees in the output
	// queue of the given VC, letting the upstream router resume moving
	// packets out of its input buffers.
	onSpace func(packet.VC)

	pumpScheduled bool
	lastVC        packet.VC // round-robin state when NoVCPriority
	// stalled marks a VC whose head packet has already been counted in
	// Stats.CreditStall, so pump re-probes don't inflate the counter; the
	// flag clears when that VC next transmits.
	stalled [packet.NumVCs]bool

	// flt, when non-nil, injects CRC failures on every transmission; the
	// corrupted packet is held in retryQ (the HMC-style link retry
	// buffer) and retransmitted after an ack round-trip plus exponential
	// backoff. Nil keeps the hot path schedule-identical to a fault-free
	// link.
	flt    *fault.LinkFault
	retryQ []retryEntry
	// state is the service-state machine. Its only transitions are
	// up->down (Fail), down->retraining (BeginRetrain) and
	// retraining->up (CompleteRetrain), each guarded by a panic.
	state State

	// origBps is the full-width serialization bandwidth bound at
	// construction; retraining and flap recovery re-bind to it.
	origBps int64
	// outstanding counts, per VC, packets launched toward the receiver
	// whose credit will eventually come back via ReturnCredit (in
	// flight on the wire or parked in the remote input buffer). It is
	// what CompleteRetrain subtracts when it re-arms the credit
	// counters, so stale returns arriving after recovery cannot
	// overflow them.
	outstanding [packet.NumVCs]int
	// healedBits counts bits sent after the direction's first
	// completed retraining — the route-back evidence FaultCounters
	// exposes as HealedBits.
	healedBits uint64

	// pumpFn and arriveFn are bound once at construction so the per-packet
	// hot path schedules them without allocating a closure.
	pumpFn   sim.Handler
	arriveFn sim.ArgHandler

	// onShip, when set (SetOnShip), observes every transmission that
	// will land: enq/pop bound the output-queue residence, start/end the
	// final wire occupancy (start > pop only after CRC retries). The
	// span tracer arms it; nil keeps the transmit path hook-free.
	onShip func(p *packet.Packet, enq, pop, start, end sim.Time)

	stats Stats
}

// entry is one packet in a reference output queue.
type entry struct {
	p        *packet.Packet
	enqueued sim.Time
}

// newRefDirection returns a refDirection. deliver must be non-nil
// before the first Send.
func newRefDirection(eng *sim.Engine, cfg Config, meter Meter) *refDirection {
	if cfg.QueueDepth <= 0 || cfg.Credits <= 0 {
		panic(fmt.Sprintf("link: non-positive queue depth %d or credits %d",
			cfg.QueueDepth, cfg.Credits))
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
	d := &refDirection{eng: eng, cfg: cfg, meter: meter, origBps: cfg.BandwidthBps}
	for vc := range d.credits {
		d.credits[vc] = cfg.Credits
	}
	d.pumpFn = func() {
		d.pumpScheduled = false
		d.pump()
	}
	d.arriveFn = d.arrive
	return d
}

// SetDeliver wires the receiver callback.
func (d *refDirection) SetDeliver(fn func(*packet.Packet)) { d.deliver = fn }

// SetOnSpace wires the output-queue-space callback.
func (d *refDirection) SetOnSpace(fn func(packet.VC)) { d.onSpace = fn }

// AttachFault arms CRC-failure injection on this direction. Call before
// traffic flows; a nil model leaves the direction fault-free.
func (d *refDirection) AttachFault(f *fault.LinkFault) { d.flt = f }

// Stats returns a copy of the direction's counters.
func (d *refDirection) Stats() Stats { return d.stats }

// CanAccept reports whether the output queue of vc has room. A failed
// or retraining direction accepts nothing.
func (d *refDirection) CanAccept(vc packet.VC) bool {
	return d.state == Up && len(d.queue[vc]) < d.cfg.QueueDepth
}

// QueueLen reports the occupancy of the vc output queue.
func (d *refDirection) QueueLen(vc packet.VC) int { return len(d.queue[vc]) }

// Credits reports the transmit credits currently available for vc.
func (d *refDirection) Credits(vc packet.VC) int { return d.credits[vc] }

// RetryLen reports how many packets sit in the retry buffer.
func (d *refDirection) RetryLen() int { return len(d.retryQ) }

// State reports the direction's service state.
func (d *refDirection) State() State { return d.state }

// Downbind halves the serialization bandwidth, modeling an HMC link
// dropping to half width after a SerDes lane failure. Transmissions
// already on the wire finish at the old rate.
func (d *refDirection) Downbind() {
	if d.cfg.BandwidthBps > 1 {
		d.cfg.BandwidthBps /= 2
	}
}

// Rebind restores the full-width serialization bandwidth bound at
// construction — the Up half of a lane flap, where the lane retrains
// while the link keeps running at reduced width.
func (d *refDirection) Rebind() {
	d.cfg.BandwidthBps = d.origBps
}

// Fail kills the direction. Every packet waiting in the output queues or
// parked in the retry buffer is handed to drain (for the owning router to
// re-route); packets already serialized onto the wire still land at the
// receiver. After Fail the direction accepts nothing and transmits
// nothing until a BeginRetrain/CompleteRetrain cycle restores it.
func (d *refDirection) Fail(drain func(*packet.Packet)) {
	if d.state != Up {
		panic(fmt.Sprintf("link: Fail on a direction already %v", d.state))
	}
	d.state = Down
	for vc := range d.queue {
		for _, e := range d.queue[vc] {
			drain(e.p)
		}
		d.queue[vc] = nil
	}
	for _, r := range d.retryQ {
		drain(r.p)
	}
	d.retryQ = nil
}

// BeginRetrain moves a failed direction into the retraining state: the
// physical repair has landed, the SerDes is re-acquiring lane lock,
// and no traffic flows yet.
func (d *refDirection) BeginRetrain() {
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
func (d *refDirection) CompleteRetrain() {
	if d.state != Retraining {
		panic(fmt.Sprintf("link: CompleteRetrain on a direction that is %v, not retraining", d.state))
	}
	d.state = Up
	d.cfg.BandwidthBps = d.origBps
	d.retryQ = nil
	d.stats.Retrains++
	for vc := packet.VC(0); vc < packet.NumVCs; vc++ {
		d.credits[vc] = d.cfg.Credits - d.outstanding[vc]
		d.stalled[vc] = false
	}
	if d.onSpace != nil {
		for vc := packet.VC(0); vc < packet.NumVCs; vc++ {
			d.onSpace(vc)
		}
	}
	d.pump()
}

// Send enqueues p for transmission. The caller must have checked
// CanAccept; Send panics on overflow to surface flow-control bugs.
func (d *refDirection) Send(p *packet.Packet) {
	if d.state != Up {
		panic(fmt.Sprintf("link: send on %v link for %v", d.state, p))
	}
	vc := packet.VCOf(p.Kind)
	if !d.CanAccept(vc) {
		panic(fmt.Sprintf("link: output queue overflow on %v for %v", vc, p))
	}
	d.queue[vc] = append(d.queue[vc], entry{p: p, enqueued: d.eng.Now()})
	d.pump()
}

// ReturnCredit is called by the receiving node when it frees one input
// buffer slot of the given VC.
func (d *refDirection) ReturnCredit(vc packet.VC) {
	d.credits[vc]++
	d.outstanding[vc]--
	if d.credits[vc] > d.cfg.Credits || d.outstanding[vc] < 0 {
		panic("link: credit overflow")
	}
	d.pump()
}

// pump attempts to start a transmission now, or schedules a retry when
// the wire frees. Ready retransmissions take the wire before fresh
// queue traffic (they hold receiver credits, so landing them first
// unblocks the most). It is idempotent per simulated instant.
func (d *refDirection) pump() {
	if d.state != Up || d.pumpScheduled {
		return
	}
	now := d.eng.Now()
	if !d.wire.Idle(now) {
		d.pumpScheduled = true
		d.eng.At(d.wire.FreeAt(), d.pumpFn)
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

// pickVC chooses the next virtual channel to serve: responses first by
// default (the deadlock-avoidance priority), else round-robin.
func (d *refDirection) pickVC() (packet.VC, bool) {
	eligible := func(vc packet.VC) bool {
		if len(d.queue[vc]) == 0 {
			return false
		}
		if d.credits[vc] == 0 {
			// One stall per deferred packet: the flag holds until this
			// VC transmits, so pump re-probes of the same stuck head
			// don't recount it.
			if !d.stalled[vc] {
				d.stalled[vc] = true
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
func (d *refDirection) transmit(vc packet.VC) {
	q := d.queue[vc]
	e := q[0]
	copy(q, q[1:])
	q[len(q)-1] = entry{} // drop the vacated slot's packet reference
	d.queue[vc] = q[:len(q)-1]
	d.credits[vc]--
	d.stalled[vc] = false

	now := d.eng.Now()
	d.stats.QueueWait += now - e.enqueued
	bits := e.p.Kind.Bits()
	ser := sim.BitTime(bits, d.cfg.BandwidthBps)
	_, end := d.wire.Reserve(now, ser)
	d.stats.BusyTime += end - now
	d.stats.Sent[vc]++
	d.stats.BitsSent += uint64(bits)
	if d.stats.Retrains > 0 {
		d.healedBits += uint64(bits)
	}

	d.finishTransmit(e.p, vc, 1, end, bits, e.enqueued, now)

	if d.onSpace != nil {
		d.onSpace(vc)
	}
}

// finishTransmit resolves one wire occupancy that ends at end: either
// the packet lands after the SerDes latency, or (with a fault model
// attached) its CRC check fails and it parks in the retry buffer. A
// retransmission becomes eligible only after the implicit-ack round
// trip (two SerDes traversals) plus an exponential backoff that doubles
// per consecutive error, capped at 64x.
func (d *refDirection) finishTransmit(p *packet.Packet, vc packet.VC, attempts int, end sim.Time, bits int, enq, pop sim.Time) {
	if d.flt != nil && d.flt.Corrupt(bits) {
		d.stats.CRCErrors++
		if d.flt.MaxRetries > 0 && attempts > d.flt.MaxRetries {
			d.stats.Dropped++
			d.credits[vc]++ // the receiver slot was never filled
			return
		}
		shift := uint(attempts - 1)
		if shift > 6 {
			shift = 6
		}
		readyAt := end + 2*d.cfg.SerDesLatency + d.flt.Backoff<<shift
		d.retryQ = append(d.retryQ, retryEntry{p: p, vc: vc, bits: bits, attempts: attempts, readyAt: readyAt, enq: enq, pop: pop})
		d.eng.At(readyAt, d.pumpFn)
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
	d.eng.AtArg(end+d.cfg.SerDesLatency, d.arriveFn, p)
}

// sendRetry retransmits the first retry-buffer entry whose backoff has
// elapsed, if any. The wire must be idle. The entry keeps its original
// credit, so no new credit is consumed.
func (d *refDirection) sendRetry(now sim.Time) bool {
	for i, r := range d.retryQ {
		if r.readyAt > now {
			continue
		}
		n := len(d.retryQ)
		copy(d.retryQ[i:], d.retryQ[i+1:])
		d.retryQ[n-1] = retryEntry{} // drop the vacated slot's packet reference
		d.retryQ = d.retryQ[:n-1]
		ser := sim.BitTime(r.bits, d.cfg.BandwidthBps)
		_, end := d.wire.Reserve(now, ser)
		d.stats.BusyTime += end - now
		d.stats.Retries++
		d.stats.BitsSent += uint64(r.bits)
		if d.stats.Retrains > 0 {
			d.healedBits += uint64(r.bits)
		}
		d.finishTransmit(r.p, r.vc, r.attempts+1, end, r.bits, r.enq, r.pop)
		return true
	}
	return false
}

// arrive lands a packet at the receiver after serialization + SerDes
// latency. It is scheduled through the bound arriveFn with the packet as
// the event argument (no per-packet closure).
func (d *refDirection) arrive(arg any) {
	p := arg.(*packet.Packet)
	if d.cfg.CountHop {
		p.Hops++
		d.meter.Hop(p.Kind.Bits())
	}
	d.deliver(p)
}
