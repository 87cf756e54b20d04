// Package vault implements a memory cube quadrant: the memory controller
// that fronts one quarter of the cube's banks. It pulls requests from the
// cube router, applies the intra-cube wrong-quadrant routing penalty,
// performs the bank access through the mem timing model, and formulates
// response packets back into the router — stalling (and therefore
// exerting backpressure into the network) when its inflight window or
// the response path fills, which is how NVM write occupancy propagates
// into network queuing in the paper's analysis (§5.2).
package vault

import (
	"fmt"
	"math"

	"memnet/internal/config"
	"memnet/internal/energy"
	"memnet/internal/link"
	"memnet/internal/mem"
	"memnet/internal/packet"
	"memnet/internal/sim"
)

// AccessBits is the data moved per array access (64B), used for energy
// accounting.
const AccessBits = 64 * 8

// BankMapper resolves a packet address to this quadrant's bank index
// and row.
type BankMapper interface {
	BankMap(addr uint64) (bank int, row int64)
}

// BankMap adapts a function to a BankMapper.
type BankMap func(addr uint64) (bank int, row int64)

// BankMap implements BankMapper.
func (f BankMap) BankMap(addr uint64) (bank int, row int64) { return f(addr) }

// ReturnPath computes the hop distance of the response path back to a
// packet's source; it is stamped into the response header for the
// distance-based arbitration downstream.
type ReturnPath interface {
	ReturnDist(p *packet.Packet) int
}

// ReturnDist adapts a function to a ReturnPath.
type ReturnDist func(p *packet.Packet) int

// ReturnDist implements ReturnPath.
func (f ReturnDist) ReturnDist(p *packet.Packet) int { return f(p) }

// Stats aggregates quadrant counters.
type Stats struct {
	Reads       uint64
	Writes      uint64
	WrongQuad   uint64
	QueueWait   sim.Time // request residency in the vault input queue
	ServiceTime sim.Time // pop -> response handoff
}

// Quadrant is one vault controller.
type Quadrant struct {
	eng         *sim.Engine
	tech        config.MemTech
	pumpPending bool
	// index and extPorts, the owning cube's external-link count, count
	// quadrants and links a build lays out, so they fit in 32 bits.
	// Quadrant q is associated with external link q mod extPorts for
	// the wrong-quadrant penalty.
	index    int32
	extPorts int32
	// inflight counts the accesses at the banks, at most maxInflight,
	// which Init caps at math.MaxInt32.
	maxInflight int32
	inflight    int32
	penalty     sim.Time

	banks   mem.Controller
	bankMap BankMapper
	ret     ReturnPath
	meter   *energy.Meter

	in  *link.Buffer
	out *link.Direction

	// service holds the requests at the banks, in order of completion
	// time with ties in issue order: the order their completeEvents
	// fire. done holds completed responses awaiting router space.
	service packet.Queue
	done    packet.Queue

	stats Stats

	// OnIssue, when non-nil, observes every bank issue with the request
	// packet and its vault input-queue wait (arrival to issue). The span
	// tracer arms it; nil keeps the issue path hook-free.
	OnIssue func(p *packet.Packet, wait sim.Time)
}

// Config bundles quadrant construction parameters.
type Config struct {
	Tech        config.MemTech
	Timing      config.MemTiming
	Index       int
	ExtPorts    int
	Penalty     sim.Time
	Banks       int
	MaxInflight int
	// BankMap, when non-nil, is the quadrant's bank map;
	// SetBankMapper installs one that is not a function.
	BankMap BankMap
	// ReturnDist, when non-nil, is the quadrant's return path;
	// SetReturnPath installs one that is not a function.
	ReturnDist ReturnDist
	Meter      *energy.Meter
}

// New builds a quadrant with its banks.
func New(eng *sim.Engine, cfg Config) *Quadrant {
	q := new(Quadrant)
	timing := cfg.Timing
	q.Init(eng, cfg, make([]mem.Bank, cfg.Banks), &timing)
	return q
}

// Init makes the zero Quadrant q a quadrant, as New does, whose
// cfg.Banks banks live in banks, which must be zero, and whose timing
// parameters are *timing in place of cfg.Timing, so that a network can
// lay out all its quadrants, and all their banks, in one slice each and
// share one timing set per technology. *timing must not change while q
// is in use. Refresh phases are staggered by bank index so a cube's
// banks do not refresh in lockstep. It panics if q was already
// initialized or banks does not hold cfg.Banks banks.
func (q *Quadrant) Init(eng *sim.Engine, cfg Config, banks []mem.Bank, timing *config.MemTiming) {
	if q.eng != nil {
		panic("vault: Quadrant initialized twice")
	}
	if len(banks) != cfg.Banks {
		panic(fmt.Sprintf("vault: %d banks for a %d-bank quadrant", len(banks), cfg.Banks))
	}
	q.eng = eng
	q.tech, q.index = cfg.Tech, int32(cfg.Index)
	q.extPorts, q.penalty = int32(cfg.ExtPorts), cfg.Penalty
	q.meter = cfg.Meter
	if cfg.BankMap != nil {
		q.bankMap = cfg.BankMap
	}
	if cfg.ReturnDist != nil {
		q.ret = cfg.ReturnDist
	}
	q.maxInflight = int32(min(cfg.MaxInflight, math.MaxInt32))
	if q.maxInflight <= 0 {
		q.maxInflight = 16
	}
	q.banks = mem.NewControllerIn(banks, timing,
		sim.Time(cfg.Index*cfg.Banks)*97*sim.Nanosecond, 97*sim.Nanosecond)
}

// SetReturnPath installs the return path whose distances responses
// carry.
func (q *Quadrant) SetReturnPath(rp ReturnPath) { q.ret = rp }

// SetBankMapper installs the map from addresses to this quadrant's
// banks and rows.
func (q *Quadrant) SetBankMapper(m BankMapper) { q.bankMap = m }

// pumpEvent is every quadrant's pump scheduled by kick; its argument is
// the Quadrant.
func pumpEvent(arg any) {
	q := arg.(*Quadrant)
	q.pumpPending = false
	q.pump()
}

// Attach wires the quadrant to its router-side connections: in delivers
// requests (the buffer fed by the router's output direction toward this
// quadrant) and out carries responses back into the router. The
// quadrant is out's space listener.
func (q *Quadrant) Attach(in *link.Buffer, out *link.Direction) {
	q.in = in
	q.out = out
	out.SetSpaceListener(q)
}

// Receive is the arrival entry point for the router->quadrant
// direction; the quadrant is that direction's receiver.
func (q *Quadrant) Receive(p *packet.Packet) {
	p.ArrivedMem = q.eng.Now()
	q.in.Push(p, q.eng.Now())
	q.kick()
}

// OnSpace resumes the pipeline when the response direction frees a
// slot.
func (q *Quadrant) OnSpace(packet.VC) { q.kick() }

// Deliver is Receive as a function.
func (q *Quadrant) Deliver() func(*packet.Packet) { return q.Receive }

// Tech reports the quadrant's memory technology.
func (q *Quadrant) Tech() config.MemTech { return q.tech }

// Stats returns a copy of the counters.
func (q *Quadrant) Stats() Stats { return q.stats }

// Inflight reports the current occupancy of the bank-access window
// (telemetry gauge).
func (q *Quadrant) Inflight() int { return int(q.inflight) }

// QueueLen reports queued work at the vault: requests waiting for a
// window slot plus completed responses awaiting router space
// (telemetry gauge).
func (q *Quadrant) QueueLen() int {
	return q.in.Len(packet.VCRequest) + q.done.Len()
}

// BankStats returns the bank counters, summed over the quadrant's banks.
func (q *Quadrant) BankStats() mem.BankStats { return q.banks.Stats() }

func (q *Quadrant) kick() {
	if q.pumpPending {
		return
	}
	q.pumpPending = true
	q.eng.ScheduleArg(0, pumpEvent, q)
}

// pump advances both ends of the quadrant pipeline: emit completed
// responses while the router accepts them, and issue new bank accesses
// while the inflight window has room.
func (q *Quadrant) pump() {
	// Drain completions first so inflight slots free up.
	for q.done.Len() > 0 && q.out.CanAccept(packet.VCResponse) {
		p, _ := q.done.Pop()
		q.emit(p)
	}
	// Issue new accesses.
	for q.inflight < q.maxInflight && q.in.Len(packet.VCRequest) > 0 {
		p := q.in.Pop(packet.VCRequest, q.eng.Now())
		q.start(p)
	}
}

// start begins the bank access for a request.
func (q *Quadrant) start(p *packet.Packet) {
	now := q.eng.Now()
	q.stats.QueueWait += now - p.ArrivedMem
	if q.OnIssue != nil {
		q.OnIssue(p, now-p.ArrivedMem)
	}
	start := now
	if ext := int(q.extPorts); ext > 0 && int(p.EnterPort)%ext != int(q.index)%ext {
		// The request entered the cube through a link belonging to a
		// different quadrant: 1 ns intra-cube re-route (§5).
		start += q.penalty
		q.stats.WrongQuad++
	}
	bank, row := q.bankMap.BankMap(p.Addr)
	kind := mem.Read
	if p.Kind == packet.WriteReq {
		kind = mem.Write
		q.stats.Writes++
	} else {
		q.stats.Reads++
	}
	q.inflight++
	done := q.banks.Access(start, bank, row, kind)
	q.meter.Access(q.tech, kind == mem.Write, AccessBits)
	q.service.Insert(p, done)
	q.eng.AtArg(done, completeEvent, q)
}

// completeEvent is every quadrant's bank-access completion; its argument
// is the Quadrant. The engine fires events in (time, scheduling) order,
// so the access completing is the head of the service queue.
func completeEvent(arg any) {
	q := arg.(*Quadrant)
	p, _ := q.service.Pop()
	q.complete(p)
}

// complete converts the finished request into a response and emits it,
// or parks it when the response path is full.
func (q *Quadrant) complete(p *packet.Packet) {
	p.MakeResponse(q.ret.ReturnDist(p))
	if q.out.CanAccept(packet.VCResponse) && q.done.Len() == 0 {
		q.emit(p)
	} else {
		q.done.Push(p, q.eng.Now())
	}
	// Either way, see if new requests can issue (a slot freed only on
	// emit; pump also drains parked work when space appears).
	q.kick()
}

// emit hands a response to the router and frees the inflight slot.
func (q *Quadrant) emit(p *packet.Packet) {
	now := q.eng.Now()
	p.DepartedMem = now
	p.MemLatency = now - p.ArrivedMem
	q.stats.ServiceTime += now - p.ArrivedMem
	q.inflight--
	q.out.Send(p)
}
