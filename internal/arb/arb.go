// Package arb implements the router input-arbitration policies studied
// in the paper:
//
//   - RoundRobin: the baseline locally-fair scheme. Because a cube's four
//     local vault queues outnumber its single upstream queue, locally fair
//     selection is globally unfair (the "parking lot problem", §3.2).
//   - Distance: the paper's §4.1 proposal — a weighted round-robin whose
//     weights use a packet's hop distance (read from the header flit) as
//     a proxy for its age.
//   - Augmented distance (§5.3): the distance weight is corrected with
//     knowledge of the source cube's memory technology (NVM responses are
//     older than their distance suggests) and the request type (writes
//     may be further delayed).
//
// All three are one weighted arbiter (Arbiter) whose weight follows from
// its kind, so the baseline is exactly the weight-1 special case.
package arb

import (
	"fmt"
	"math"

	"memnet/internal/packet"
)

// Kind selects an arbitration policy.
type Kind uint8

const (
	// RoundRobin is the locally-fair baseline.
	RoundRobin Kind = iota
	// Distance is the naive distance-as-age scheme of §4.1.
	Distance
	// DistanceAugmented is the §5.3 scheme, aware of memory technology
	// and request type.
	DistanceAugmented
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case RoundRobin:
		return "round-robin"
	case Distance:
		return "distance"
	case DistanceAugmented:
		return "distance-augmented"
	default:
		return "arb(?)"
	}
}

// Policy selects which input port an output port serves next. Policies
// are per-router and stateful (they hold the fairness counters).
type Policy interface {
	// Pick chooses one of candidates (input-port indices whose head
	// packet is eligible for this output). heads[k] is the head packet of
	// candidates[k]; the two slices have equal length. candidates is
	// non-empty and sorted ascending. Both slices are the caller's
	// scratch: Pick must not retain them past the call.
	Pick(out int, vc packet.VC, candidates []int, heads []*packet.Packet) int
}

// TechBias estimates, in weight units, how much older a packet from the
// given node is than its hop distance implies. Used by the augmented
// policy for NVM-sourced responses.
type TechBias func(n packet.NodeID) int64

// Config carries the tuning constants of the distance policies. The
// paper determined these "empirically using both average network hop
// latency and average memory access latency for each cube technology
// type" (§5.3); defaults are derived the same way in core.DefaultArb.
type Config struct {
	// Bias, when non-nil, augments response weights by the source cube's
	// technology latency (in hop-equivalents).
	Bias TechBias
	// WriteDemotion divides the weight of write requests/acks (>=1).
	WriteDemotion int64
}

// New returns a policy of the given kind. cfg may be zero-valued for
// RoundRobin and Distance.
func New(kind Kind, cfg Config) Policy {
	a := new(Arbiter)
	a.Init(kind, cfg.WriteDemotion, nil)
	a.biasFn = cfg.Bias
	return a
}

// Arbiter is a weighted arbiter with two modes. In smooth mode
// (RoundRobin) it is a smooth weighted round-robin (nginx-style): each
// contender's running counter grows by its weight every arbitration, the
// largest counter wins and is decremented by the sum of active weights;
// with all weights equal to 1 this is plain round-robin. In strict mode
// (the distance kinds) the highest head-packet weight always wins (ties
// broken by rotation) — the paper's distance arbitration favors the
// estimated-oldest packet outright, which is what makes the naive scheme
// misfire on NVM-F placements (§5.1).
//
// A head's weight follows from the kind: 1 under RoundRobin,
// 1 + its distance under Distance, and under DistanceAugmented that plus
// its source's technology bias for a response, divided by the write
// demotion (floored at 1) for a write.
//
// State is kept per (output port, VC) so request and response streams do
// not perturb each other's fairness, in flat tables indexed by key =
// out*NumVCs+vc: one rotation per key (strict), or one row of width
// counters per key, indexed by input port (smooth). The tables are
// allocated at the first contended pick, whole when the router has
// told the arbiter its port count (SetPorts), so an arbiter allocates
// once; past that size they grow to fit, and steady-state picks never
// allocate. Both tables hold 32-bit counters, and a pick panics rather
// than overflow one: a key's rotation at its 2^31st pick, a smooth
// counter if it would leave the int32 range.
type Arbiter struct {
	kind   Kind
	demote int64
	// bias is the per-node technology bias, indexed by source node;
	// nodes past its end have none. The arbiters of a build share it.
	bias []int64
	// biasFn is New's Config.Bias, consulted when bias is nil.
	biasFn TechBias

	ports int
	keys  int
	width int
	rot   []int32
	state []int32
}

// Init makes the zero Arbiter a policy of the given kind, so that a
// network can lay out all its routers' arbiters in one slice. demotion
// divides the weight of writes under DistanceAugmented (values below 1
// count as 1), and bias, which may be nil, is its per-node technology
// bias. It panics on an unknown kind or if a was already initialized.
func (a *Arbiter) Init(kind Kind, demotion int64, bias []int64) {
	if kind > DistanceAugmented {
		panic("arb: unknown kind")
	}
	if a.demote != 0 {
		panic("arb: Arbiter initialized twice")
	}
	a.kind, a.demote, a.bias = kind, max(demotion, 1), bias
}

// strict reports whether the highest weight always wins.
func (a *Arbiter) strict() bool { return a.kind != RoundRobin }

// weight is the arbitration weight of head packet p.
func (a *Arbiter) weight(p *packet.Packet) int64 {
	if a.kind == RoundRobin {
		return 1
	}
	w := 1 + int64(p.Distance)
	if a.kind == Distance {
		return w
	}
	if p.Kind.IsResponse() {
		w += a.techBias(p.Src)
	}
	if p.Kind.IsWrite() {
		w = max(w/a.demote, 1)
	}
	return w
}

// techBias is node n's technology bias.
func (a *Arbiter) techBias(n packet.NodeID) int64 {
	if a.bias != nil {
		if uint(n) < uint(len(a.bias)) {
			return a.bias[n]
		}
		return 0
	}
	if a.biasFn != nil {
		return a.biasFn(n)
	}
	return 0
}

// SetPorts sizes the arbiter for a router of n ports before its first
// pick.
func (a *Arbiter) SetPorts(n int) { a.ports = n }

// fit grows the tables to cover key and input port last.
func (a *Arbiter) fit(key, last int) {
	strict := a.strict()
	if key < a.keys && (strict || last < a.width) {
		return
	}
	keys := max(key+1, a.keys, a.ports*int(packet.NumVCs))
	if strict {
		a.rot = append(a.rot, make([]int32, keys-a.keys)...)
		a.keys = keys
		return
	}
	width := max(last+1, a.width, a.ports)
	state := make([]int32, keys*width)
	for k := 0; k < a.keys; k++ {
		copy(state[k*width:], a.state[k*a.width:(k+1)*a.width])
	}
	a.state, a.keys, a.width = state, keys, width
}

// Pick implements Policy.
func (a *Arbiter) Pick(out int, vc packet.VC, candidates []int, heads []*packet.Packet) int {
	if len(candidates) == 1 {
		return candidates[0]
	}
	key := out*int(packet.NumVCs) + int(vc)
	a.fit(key, candidates[len(candidates)-1])
	if a.strict() {
		rot := a.rot[key]
		if rot == math.MaxInt32 {
			panic(fmt.Sprintf("arb: rotation of output %d VC %d overflows int32", out, vc))
		}
		best := -1
		var bestVal int64
		for k := 0; k < len(candidates); k++ {
			j := (int(rot) + k) % len(candidates)
			w := a.weight(heads[j])
			if best == -1 || w > bestVal {
				best = candidates[j]
				bestVal = w
			}
		}
		a.rot[key] = rot + 1
		return best
	}
	cur := a.state[key*a.width : (key+1)*a.width]

	var total int64
	best := -1
	var bestVal int64
	for k, c := range candidates {
		w := a.weight(heads[k])
		v := int64(cur[c]) + w
		cur[c] = counter(v, out, vc)
		total += w
		if best == -1 || v > bestVal {
			best = c
			bestVal = v
		}
	}
	cur[best] = counter(bestVal-total, out, vc)
	return best
}

// counter narrows smooth counter v of output out's vc to its table's
// 32 bits, panicking if it does not fit.
func counter(v int64, out int, vc packet.VC) int32 {
	if v != int64(int32(v)) {
		panic(fmt.Sprintf("arb: smooth counter %d of output %d VC %d overflows int32", v, out, vc))
	}
	return int32(v)
}
