//go:build simdebug

package packet

import "testing"

// TestDoublePutPanics checks the simdebug double-free guard: returning
// a packet that is already on the free list must panic at the second
// Put, not corrupt the free list silently.
func TestDoublePutPanics(t *testing.T) {
	var pl Pool
	p := pl.Get()
	pl.Put(p)
	defer func() {
		if recover() == nil {
			t.Fatal("second Put of the same packet did not panic under simdebug")
		}
	}()
	pl.Put(p)
}

// TestPoolRoundTripsUnderGuard checks the guard stays silent across
// legitimate reuse cycles, including interleaved packets.
func TestPoolRoundTripsUnderGuard(t *testing.T) {
	var pl Pool
	a, b := pl.Get(), pl.Get()
	pl.Put(a)
	pl.Put(b)
	for i := 0; i < 100; i++ {
		p := pl.Get()
		q := pl.Get()
		pl.Put(q)
		pl.Put(p)
	}
	if pl.Free() != 2 {
		t.Fatalf("free-list depth = %d, want 2", pl.Free())
	}
}

// TestPutQueuedPanics checks the ownership guard: returning a packet
// that a queue still links would cut that queue short, so Put panics.
func TestPutQueuedPanics(t *testing.T) {
	var pl Pool
	var q Queue
	p := pl.Get()
	q.Push(p, 0)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Put of a queued packet did not panic under simdebug")
			}
		}()
		pl.Put(p)
	}()
	if q.Head() != p || q.Len() != 1 {
		t.Fatal("the rejected Put disturbed the queue")
	}
	q.Pop()
	pl.Put(p)
}

// TestReserveRegistersPackets checks that reserved packets count as
// pooled: putting one that was never handed out is a double free, and
// handing them out and back is silent.
func TestReserveRegistersPackets(t *testing.T) {
	var pl Pool
	pl.Reserve(4)
	if pl.Free() != 4 {
		t.Fatalf("free-list depth = %d, want 4", pl.Free())
	}
	ps := []*Packet{pl.Get(), pl.Get()}
	for _, p := range ps {
		pl.Put(p)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Put of a reserved packet still on the free list did not panic under simdebug")
		}
	}()
	pl.Put(pl.free[0])
}
