package sim

import "testing"

// TestWheelSlotEmptyAndRefill pops a slot down to empty and fills it
// again: a slot is named by its tail, whose next is the head, so a lone
// node links to itself, popping it clears the slot and its occupancy
// bit, and the refill reuses the freed nodes.
func TestWheelSlotEmptyAndRefill(t *testing.T) {
	var w wheel
	const s = 7
	base := Time(s) * slotWidth
	push := func(at Time, seq uint64) {
		t.Helper()
		ev := w.push(at, seq)
		if ev == nil {
			t.Fatalf("push(%v, %d) overflowed", at, seq)
		}
		ev.at, ev.seq = at, seq
	}
	occupied := func() bool { return w.occ[s>>6]&(1<<(s&63)) != 0 }
	drain := func(want ...uint64) {
		t.Helper()
		for _, seq := range want {
			if h := w.head(s); h == nil || h.seq != seq {
				t.Fatalf("head %+v, want seq %d", h, seq)
			}
			var ev event
			w.pop(s, &ev)
			if ev.seq != seq {
				t.Fatalf("popped seq %d, want %d", ev.seq, seq)
			}
		}
		if w.slots[s] != 0 || occupied() || w.head(s) != nil || w.n != 0 {
			t.Fatalf("drained slot: tail %d, occupied %v, %d events held", w.slots[s], occupied(), w.n)
		}
	}

	// One node is its own successor.
	push(base+10, 1)
	if tail := w.slots[s]; tail == 0 || w.nodes[tail].next != tail || !occupied() {
		t.Fatalf("lone node: tail %d, next %d, occupied %v", tail, w.nodes[w.slots[s]].next, occupied())
	}
	drain(1)

	// Tail appends, a head insert and a mid-list insert, then empty.
	push(base+20, 2)
	push(base+30, 3)
	push(base+5, 4)  // before the head
	push(base+20, 5) // equal time, later seq: after seq 2
	nodes := len(w.nodes)
	drain(4, 2, 5, 3)

	// The refill takes the freed nodes and keeps (at, seq) order.
	push(base+40, 6)
	push(base+35, 7)
	push(base+50, 8)
	if len(w.nodes) != nodes {
		t.Fatalf("refill grew the slab from %d to %d nodes", nodes, len(w.nodes))
	}
	drain(7, 6, 8)

	// An insert that would walk past maxWalk nodes is refused and leaves
	// the slot as it was.
	for i := 0; i <= maxWalk; i++ {
		push(base+Time(2*i), uint64(10+i))
	}
	if ev := w.push(base+Time(2*maxWalk-1), 99); ev != nil {
		t.Fatal("insert past maxWalk nodes was accepted")
	}
	want := make([]uint64, 0, maxWalk+1)
	for i := 0; i <= maxWalk; i++ {
		want = append(want, uint64(10+i))
	}
	drain(want...)
}
