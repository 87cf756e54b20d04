package packet

import (
	"testing"
	"unsafe"

	"memnet/internal/sim"
)

// mustPanic fails t unless fn panics.
func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	fn()
}

// TestQueueFIFO: packets pop in push order with their push times, and a
// popped packet is unlinked.
func TestQueueFIFO(t *testing.T) {
	var q Queue
	ps := []*Packet{{ID: 1}, {ID: 2}, {ID: 3}}
	for i, p := range ps {
		q.Push(p, sim.Time(10*i))
		if !p.Queued() {
			t.Fatalf("packet %d not queued after Push", p.ID)
		}
	}
	if q.Len() != 3 || q.Head() != ps[0] || q.HeadAt() != 0 {
		t.Fatalf("Len %d, Head %v, HeadAt %v", q.Len(), q.Head(), q.HeadAt())
	}
	for i, want := range ps {
		p, at := q.Pop()
		if p != want || at != sim.Time(10*i) {
			t.Fatalf("pop %d = packet %d at %v, want %d at %v", i, p.ID, at, want.ID, sim.Time(10*i))
		}
		if p.Queued() {
			t.Fatalf("packet %d still queued after Pop", p.ID)
		}
	}
	if q.Len() != 0 || q.Head() != nil || q.tail != nil {
		t.Fatalf("drained queue: Len %d, head %v, tail %v", q.Len(), q.head, q.tail)
	}
	// An emptied queue starts afresh rather than linking behind the
	// packet that left last.
	q.Push(ps[1], 5)
	if p, _ := q.Pop(); p != ps[1] || ps[2].Queued() {
		t.Fatal("refilled queue reaches a departed packet")
	}
}

// TestQueueDoubleLinkPanics: a packet already in a queue — this one or
// another — cannot be pushed or inserted, and the queue it is in stays
// intact.
func TestQueueDoubleLinkPanics(t *testing.T) {
	var a, b Queue
	p, r := &Packet{ID: 1}, &Packet{ID: 2}
	a.Push(p, 0)
	a.Push(r, 1)
	mustPanic(t, "Push into the same queue", func() { a.Push(p, 2) })
	mustPanic(t, "Push into another queue", func() { b.Push(p, 2) })
	mustPanic(t, "Insert of the tail into another queue", func() { b.Insert(r, 0) })
	if a.Len() != 2 || b.Len() != 0 || b.Head() != nil {
		t.Fatalf("after the panics: a has %d, b has %d", a.Len(), b.Len())
	}
	if got, _ := a.Pop(); got != p {
		t.Fatal("queue order broken by the rejected pushes")
	}
	if got, _ := a.Pop(); got != r {
		t.Fatal("queue order broken by the rejected pushes")
	}
}

// TestQueueEmptyPanics: popping an empty queue, or reading its head's
// time, panics; Head is nil.
func TestQueueEmptyPanics(t *testing.T) {
	var q Queue
	if q.Head() != nil || q.Len() != 0 {
		t.Fatal("zero queue not empty")
	}
	mustPanic(t, "Pop of an empty queue", func() { q.Pop() })
	mustPanic(t, "HeadAt of an empty queue", func() { q.HeadAt() })
	q.Push(&Packet{}, 0)
	q.Pop()
	mustPanic(t, "Pop of a drained queue", func() { q.Pop() })
}

// TestQueueInsertOrder: Insert keeps the queue sorted by time, equal
// times in insertion order, wherever the new packet lands.
func TestQueueInsertOrder(t *testing.T) {
	var q Queue
	ats := []sim.Time{50, 20, 80, 20, 10, 50, 90, 10, 90}
	for i, at := range ats {
		q.Insert(&Packet{ID: uint64(i)}, at)
	}
	want := []uint64{4, 7, 1, 3, 0, 5, 2, 6, 8}
	for i, id := range want {
		p, at := q.Pop()
		if p.ID != id || at != ats[id] {
			t.Fatalf("pop %d = packet %d at %v, want %d at %v", i, p.ID, at, id, ats[id])
		}
	}
	if q.Len() != 0 || q.tail != nil {
		t.Fatal("queue not empty after popping every packet")
	}
}

// TestReserveAllocFree: a pool seeded with n packets serves n at a time
// without allocating.
func TestReserveAllocFree(t *testing.T) {
	var pl Pool
	pl.Reserve(8)
	ps := make([]*Packet, 8)
	if n := testing.AllocsPerRun(10, func() {
		for i := range ps {
			ps[i] = pl.Get()
		}
		for _, p := range ps {
			pl.Put(p)
		}
	}); n != 0 {
		t.Errorf("8 Gets and Puts from a reserved pool make %v allocations, want 0", n)
	}
}

// TestPacketSize: the queue link fits in the words the small fields
// share, so a packet stays 104 bytes.
func TestPacketSize(t *testing.T) {
	if sz := unsafe.Sizeof(Packet{}); sz > 104 {
		t.Errorf("Packet is %d B, want <= 104", sz)
	}
}
