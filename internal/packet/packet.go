// Package packet defines the messages that travel through a memory
// network: read/write requests from the host and the matching responses
// from the cubes. Packet sizes follow the paper's assumption that
// data-carrying packets (read responses and write requests) are five
// times larger than control packets (read requests and write acks).
package packet

import (
	"fmt"

	"memnet/internal/sim"
)

// Kind classifies a packet.
type Kind uint8

const (
	// ReadReq is a host-to-cube read request (control-sized).
	ReadReq Kind = iota
	// ReadResp carries read data back to the host (data-sized).
	ReadResp
	// WriteReq carries write data to a cube (data-sized).
	WriteReq
	// WriteAck acknowledges a completed write (control-sized).
	WriteAck
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case ReadReq:
		return "ReadReq"
	case ReadResp:
		return "ReadResp"
	case WriteReq:
		return "WriteReq"
	case WriteAck:
		return "WriteAck"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// IsRequest reports whether the packet travels host -> memory.
func (k Kind) IsRequest() bool { return k == ReadReq || k == WriteReq }

// IsResponse reports whether the packet travels memory -> host.
func (k Kind) IsResponse() bool { return !k.IsRequest() }

// IsRead reports whether the packet belongs to a read transaction.
func (k Kind) IsRead() bool { return k == ReadReq || k == ReadResp }

// IsWrite reports whether the packet belongs to a write transaction.
func (k Kind) IsWrite() bool { return !k.IsRead() }

// CarriesData reports whether the packet is data-sized (5x control).
func (k Kind) CarriesData() bool { return k == ReadResp || k == WriteReq }

// Packet sizes in bits. A control packet is a single 16-byte flit; data
// packets add four 16-byte data flits (64B payload), preserving the
// paper's 5:1 ratio.
const (
	ControlBits = 128
	DataBits    = 5 * ControlBits
)

// Bits returns the serialized size of a packet of kind k.
func (k Kind) Bits() int {
	if k.CarriesData() {
		return DataBits
	}
	return ControlBits
}

// NodeID identifies a node in a single memory-network graph. The host
// memory port is always node 0; memory cubes (and MetaCube interface
// chips) are numbered from 1.
type NodeID int32

// HostNode is the NodeID of the host memory port in every topology.
const HostNode NodeID = 0

// VC identifies a virtual channel. Requests and responses use separate
// channels so responses can always drain, which is the deadlock-avoidance
// rule that also causes the request-path queuing imbalance analyzed in
// the paper (Fig. 5).
type VC uint8

const (
	// VCRequest carries ReadReq and WriteReq packets.
	VCRequest VC = iota
	// VCResponse carries ReadResp and WriteAck packets.
	VCResponse
	// NumVCs is the number of virtual channels per link direction.
	NumVCs
)

// VCOf returns the virtual channel a packet kind travels on.
func VCOf(k Kind) VC {
	if k.IsRequest() {
		return VCRequest
	}
	return VCResponse
}

// Packet is a message in flight. Packets are allocated once per
// transaction leg and mutated in place as they move, so the simulator
// performs no steady-state allocation on the forwarding path.
//
// Fields are ordered so that the small ones share words (the struct is
// 104 bytes, with the queue link included) and the fields every hop
// reads come first, near the queue link.
type Packet struct {
	// next links the packet into the one Queue that holds it: the next
	// packet, or &end for the last one; nil when the packet is in no
	// queue. at is the time it was pushed.
	next *Packet
	at   sim.Time

	Kind Kind

	// EnterPort records the router port the packet most recently arrived
	// through; the destination cube uses it to apply the wrong-quadrant
	// routing penalty (a request that lands on a link not associated
	// with its target quadrant pays 1 ns of intra-cube routing).
	EnterPort int8

	// Class is the routing class (topology.PathClass) stamped when the
	// packet is injected. Stamping — rather than re-evaluating the
	// host's write-shortcut state at every hop — keeps each packet's
	// route internally consistent even when the hysteresis monitor
	// flips mid-flight.
	Class uint8

	ReadModWrite bool // part of a read-modify-write pair (workload metadata)

	// SpanSlot links the packet to its in-flight span record when the
	// transaction is sampled by the span tracer (internal/span): zero
	// means unsampled, otherwise recorder slot index + 1. It survives
	// MakeResponse so the return path keeps appending to the same span,
	// and is cleared when the host overwrites the struct at injection.
	SpanSlot int32

	Src NodeID // injecting node (host for requests, cube for responses)
	Dst NodeID // destination node

	// Distance is the hop count from Src to Dst computed from the
	// topology's routing tables when the packet is injected. It is the
	// quantity the paper's distance-based arbitration reads out of the
	// header flit.
	Distance int

	// Hops counts link traversals so far.
	Hops int

	ID   uint64
	Addr uint64 // physical address within the port's slice

	// Timestamps for latency decomposition (Fig. 5).
	Injected    sim.Time // entered the network at Src
	ArrivedMem  sim.Time // request arrived at destination cube
	DepartedMem sim.Time // response left the cube
	Completed   sim.Time // response arrived back at the host
	MemLatency  sim.Time // time spent in the memory array/controller
}

// String implements fmt.Stringer for debugging and trace logs.
func (p *Packet) String() string {
	return fmt.Sprintf("%s#%d %d->%d addr=%#x dist=%d hops=%d",
		p.Kind, p.ID, p.Src, p.Dst, p.Addr, p.Distance, p.Hops)
}

// ResponseKind returns the packet kind of the response matching a
// request kind. It panics if k is not a request.
func ResponseKind(k Kind) Kind {
	switch k {
	case ReadReq:
		return ReadResp
	case WriteReq:
		return WriteAck
	default:
		panic("packet: ResponseKind of non-request " + k.String())
	}
}

// MakeResponse converts a request packet, in place, into its response:
// kind flips, src/dst swap, hop count resets, and the distance field is
// re-stamped for the return trip (the return distance may differ on
// asymmetric topologies such as the skip list).
func (p *Packet) MakeResponse(returnDistance int) {
	p.Kind = ResponseKind(p.Kind)
	p.Src, p.Dst = p.Dst, p.Src
	p.Hops = 0
	p.Distance = returnDistance
	// Responses always take shortest paths (PathShort = 0).
	p.Class = 0
}
