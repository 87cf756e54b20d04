package packet

import (
	"fmt"

	"memnet/internal/sim"
)

// Queue is a FIFO of packets threaded through the packets themselves. A
// packet is in one place at a time — an output queue, on a wire, in an
// input buffer, at a memory bank — so each packet carries one queue link
// and a queue costs its 24-byte header and no storage of its own. The
// zero Queue is empty and ready for use.
//
// A packet must leave one queue (Pop) before it joins another: Push
// panics on a packet that is still queued, since linking it twice would
// splice the two queues together.
type Queue struct {
	head, tail *Packet
	n          int
}

// end terminates every queue: the last packet's next is &end, so a packet
// is queued exactly when its next is not nil.
var end Packet

// Queued reports whether p is in a queue.
func (p *Packet) Queued() bool { return p.next != nil }

// Push appends p, stamped with time at.
func (q *Queue) Push(p *Packet, at sim.Time) {
	q.link(p, at)
	if q.tail == nil {
		q.head = p
	} else {
		q.tail.next = p
	}
	q.tail = p
}

// Insert adds p in order of the push times, after every packet stamped no
// later than at; a queue filled only by Insert stays sorted by at, with
// ties in insertion order.
func (q *Queue) Insert(p *Packet, at sim.Time) {
	if q.tail == nil || q.tail.at <= at {
		q.Push(p, at)
		return
	}
	q.link(p, at)
	if q.head.at > at {
		p.next, q.head = q.head, p
		return
	}
	// The tail is stamped later than at, so the walk stops before it.
	prev := q.head
	for prev.next.at <= at {
		prev = prev.next
	}
	p.next, prev.next = prev.next, p
}

// link stamps p and counts it in, panicking if p is already queued.
func (q *Queue) link(p *Packet, at sim.Time) {
	if p.next != nil {
		panic(fmt.Sprintf("packet: %v is already in a queue", p))
	}
	p.next, p.at = &end, at
	q.n++
}

// Pop removes the head packet and returns it with its push time. It
// panics if the queue is empty.
func (q *Queue) Pop() (*Packet, sim.Time) {
	p := q.head
	if p == nil {
		panic("packet: Pop from an empty queue")
	}
	if p.next == &end {
		q.head, q.tail = nil, nil
	} else {
		q.head = p.next
	}
	p.next = nil
	q.n--
	return p, p.at
}

// Head returns the head packet without removing it, or nil.
func (q *Queue) Head() *Packet { return q.head }

// HeadAt returns the head packet's push time. It panics if the queue is
// empty.
func (q *Queue) HeadAt() sim.Time {
	if q.head == nil {
		panic("packet: HeadAt of an empty queue")
	}
	return q.head.at
}

// Len reports the number of queued packets.
func (q *Queue) Len() int { return q.n }
