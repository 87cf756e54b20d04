package link

import (
	"fmt"

	"memnet/internal/packet"
	"memnet/internal/sim"
)

// Buffer is the receiving-side input structure of a Direction: one FIFO
// per virtual channel whose depth matches the sender's credit allowance.
// Popping an entry returns a credit upstream.
type Buffer struct {
	depth int
	fifo  [packet.NumVCs][]arrival
	// credit returns one slot to the upstream Direction.
	credit CreditReturner
	// waitTotal accumulates input-queuing time, the quantity the paper's
	// Section 3.2 analysis found "highly unbalanced" across ports.
	waitTotal sim.Time
	popped    uint64
}

type arrival struct {
	p  *packet.Packet
	at sim.Time
}

// NewBuffer returns a buffer of the given per-VC depth whose Pop returns
// credits through the supplied callback, or to no one if it is nil.
func NewBuffer(depth int, credit func(packet.VC)) *Buffer {
	b := new(Buffer)
	if credit == nil {
		b.Init(depth, nil)
	} else {
		b.Init(depth, creditFunc(credit))
	}
	return b
}

// Init makes the zero Buffer b ready for use, as NewBuffer does, so that
// a network can lay out all its buffers in one slice. Pop returns
// credits to credit (typically the Direction that fills b), or to no
// one if it is nil. It panics if b was already initialized.
func (b *Buffer) Init(depth int, credit CreditReturner) {
	if b.depth != 0 {
		panic("link: Buffer initialized twice")
	}
	if depth <= 0 {
		panic("link: non-positive buffer depth")
	}
	b.depth, b.credit = depth, credit
}

// Push stores an arriving packet. Space is guaranteed by the sender's
// credit discipline; overflow indicates a protocol bug and panics.
func (b *Buffer) Push(p *packet.Packet, now sim.Time) {
	vc := packet.VCOf(p.Kind)
	if len(b.fifo[vc]) >= b.depth {
		panic(fmt.Sprintf("link: input buffer overflow on %v for %v", vc, p))
	}
	if b.fifo[vc] == nil {
		// Most FIFOs never hold more than two packets; start there
		// rather than grow through one.
		b.fifo[vc] = make([]arrival, 0, min(2, b.depth))
	}
	b.fifo[vc] = append(b.fifo[vc], arrival{p: p, at: now})
}

// Head returns the oldest packet of vc without removing it, or nil.
func (b *Buffer) Head(vc packet.VC) *packet.Packet {
	if len(b.fifo[vc]) == 0 {
		return nil
	}
	return b.fifo[vc][0].p
}

// Len reports the occupancy of the vc FIFO.
func (b *Buffer) Len(vc packet.VC) int { return len(b.fifo[vc]) }

// HeadSince reports when the head packet of vc arrived. It lets an
// observer attribute per-packet arbitration wait before Pop folds the
// residency into the aggregate counters. Panics if the FIFO is empty.
func (b *Buffer) HeadSince(vc packet.VC) sim.Time {
	if len(b.fifo[vc]) == 0 {
		panic("link: HeadSince on empty input buffer")
	}
	return b.fifo[vc][0].at
}

// Pop removes and returns the head of vc, returning one credit upstream.
// It panics if the FIFO is empty.
func (b *Buffer) Pop(vc packet.VC, now sim.Time) *packet.Packet {
	if len(b.fifo[vc]) == 0 {
		panic("link: pop from empty input buffer")
	}
	q := b.fifo[vc]
	a := q[0]
	copy(q, q[1:])
	// Zero the vacated slot so the backing array does not keep a packet
	// that may since have been recycled into a pool.
	q[len(q)-1] = arrival{}
	b.fifo[vc] = q[:len(q)-1]
	b.waitTotal += now - a.at
	b.popped++
	if b.credit != nil {
		b.credit.ReturnCredit(vc)
	}
	return a.p
}

// MeanWait reports the average input-buffer residency observed so far.
func (b *Buffer) MeanWait() sim.Time {
	if b.popped == 0 {
		return 0
	}
	return b.waitTotal / sim.Time(b.popped)
}

// TotalWait reports accumulated input-buffer residency.
func (b *Buffer) TotalWait() sim.Time { return b.waitTotal }
