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
	// fifo holds each VC's packets, stamped with their arrival time.
	fifo [packet.NumVCs]packet.Queue
	// credit returns one slot to the upstream Direction.
	credit CreditReturner
	// waitTotal accumulates input-queuing time, the quantity the paper's
	// Section 3.2 analysis found "highly unbalanced" across ports.
	waitTotal sim.Time
	popped    uint64
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
	if b.fifo[vc].Len() >= b.depth {
		panic(fmt.Sprintf("link: input buffer overflow on %v for %v", vc, p))
	}
	b.fifo[vc].Push(p, now)
}

// Head returns the oldest packet of vc without removing it, or nil.
func (b *Buffer) Head(vc packet.VC) *packet.Packet { return b.fifo[vc].Head() }

// Len reports the occupancy of the vc FIFO.
func (b *Buffer) Len(vc packet.VC) int { return b.fifo[vc].Len() }

// HeadSince reports when the head packet of vc arrived. It lets an
// observer attribute per-packet arbitration wait before Pop folds the
// residency into the aggregate counters. Panics if the FIFO is empty.
func (b *Buffer) HeadSince(vc packet.VC) sim.Time {
	if b.fifo[vc].Len() == 0 {
		panic("link: HeadSince on empty input buffer")
	}
	return b.fifo[vc].HeadAt()
}

// Pop removes and returns the head of vc, returning one credit upstream.
// It panics if the FIFO is empty.
func (b *Buffer) Pop(vc packet.VC, now sim.Time) *packet.Packet {
	if b.fifo[vc].Len() == 0 {
		panic("link: pop from empty input buffer")
	}
	p, at := b.fifo[vc].Pop()
	b.waitTotal += now - at
	b.popped++
	if b.credit != nil {
		b.credit.ReturnCredit(vc)
	}
	return p
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
