package sim

import "math/bits"

// Timing-wheel geometry. A recorded 300k-transaction tree run (11.4M
// events) has 41% zero-delay events, which the fast lane takes; of the
// rest, 99.96% are 256 ps–131 ns ahead (SerDes flits, crossbar hops,
// DRAM timings), only 11 are below 256 ps, and none reaches 262 ns.
// 512 ps slots spread that mix over a few hundred slots, each holding an
// event or two, and 1024 of them give a ~524 ns horizon, which also
// holds a PCM write's 320 ns occupancy. Longer delays — fault plans,
// watchdog ticks — go to the overflow heap. Half the slots would halve
// the slot heads (each one int32, see wheel) to 2 KB, but a 50% NVM
// skip list then sent 350 instead of 13 of 1.8M events to the heap, and
// the Figs. 4, 7 and 11 pass grew its heap 270 more times.
const (
	slotShift    = 9
	slotWidth    = Time(1) << slotShift // 512 ps
	numSlots     = 1024
	slotMask     = numSlots - 1
	wheelHorizon = numSlots * slotWidth // 524,288 ps

	// maxWalk bounds how many nodes an out-of-order insert may step over
	// in one slot before the event goes to the overflow heap instead. An
	// unbounded walk turns a slot crowded with out-of-order times into a
	// linear list: BenchmarkHeapChurn at depth 4096 took 8.5 µs per op.
	maxWalk = 8

	// slabInit is the node slab's first capacity. A short figure run
	// peaks at a few dozen wheel events; starting there skips the
	// slab's smallest doublings, each a copy and an allocation.
	slabInit = 64
)

// wnode is one wheel event, threaded into its slot's list by index into
// the node slab. Index 0 is the nil link.
type wnode struct {
	ev   event
	next int32
}

// wheel holds future events whose slot lies within numSlots of the
// clock's slot. Each slot is a circular singly linked list in (at, seq)
// order, named by its tail: slots[s] is the tail's node (0 for an empty
// slot) and the tail's next is the head, so one int32 per slot finds
// both ends. occ has one bit per non-empty slot. The zero value is an
// empty wheel.
type wheel struct {
	n int // events held
	// nodes is the slab every slot list lives in; nodes[0] is unused so
	// a zero index means "none". Freed nodes form a list through next.
	nodes []wnode
	free  int32
	occ   [numSlots / 64]uint64
	slots [numSlots]int32
}

// slotOf maps a time to its wheel slot.
func slotOf(t Time) int { return int(t>>slotShift) & slotMask }

// inHorizon reports whether t's slot lies within one wheel turn of
// now's. Since now only grows and every pending event is at or after
// it, all wheel events then occupy distinct absolute slots: no slot ever
// mixes two turns of the wheel.
func inHorizon(now, t Time) bool { return t>>slotShift-now>>slotShift < numSlots }

// push links a node for a new event at place (t, seq) into t's slot and
// returns the node's event for the caller to fill. A newly scheduled
// event's seq is larger than that of every pending event, but a
// committed wakeup's is not, so the order is by (at, seq) throughout:
// push appends at the slot tail when the place is after it, else walks
// from the head for at most maxWalk nodes. It returns nil, leaving the
// wheel unchanged, when the walk bound is hit.
func (w *wheel) push(t Time, seq uint64) *event {
	s := slotOf(t)
	tail := w.slots[s]
	if tail == 0 {
		n := w.alloc()
		w.nodes[n].next = n
		w.slots[s] = n
		w.occ[s>>6] |= 1 << (s & 63)
		w.n++
		return &w.nodes[n].ev
	}
	if last := &w.nodes[tail].ev; t > last.at || t == last.at && seq > last.seq {
		n := w.alloc()
		w.nodes[n].next = w.nodes[tail].next
		w.nodes[tail].next = n
		w.slots[s] = n
		w.n++
		return &w.nodes[n].ev
	}
	// The tail is after the place, so the walk finds one before the end
	// of the list. Starting from the tail as the head's predecessor makes
	// an insert at the head like any other.
	prev := tail
	cur := w.nodes[tail].next
	for i := 0; i < maxWalk; i++ {
		if c := &w.nodes[cur].ev; t < c.at || t == c.at && seq < c.seq {
			n := w.alloc()
			w.nodes[n].next = cur
			w.nodes[prev].next = n
			w.n++
			return &w.nodes[n].ev
		}
		prev, cur = cur, w.nodes[cur].next
	}
	return nil
}

// alloc takes a node from the free list, or grows the slab. The node's
// event is zero and its link is nil.
func (w *wheel) alloc() int32 {
	if n := w.free; n != 0 {
		w.free = w.nodes[n].next
		w.nodes[n].next = 0
		return n
	}
	if len(w.nodes) == 0 {
		w.nodes = make([]wnode, 1, slabInit) // nodes[0] is the nil node
	}
	w.nodes = append(w.nodes, wnode{})
	return int32(len(w.nodes) - 1)
}

// first returns the slot holding the earliest wheel event, scanning the
// occupancy bitmap circularly from now's slot. The wheel must not be
// empty.
func (w *wheel) first(now Time) int {
	b := slotOf(now)
	i := b >> 6
	if word := w.occ[i] >> (b & 63); word != 0 {
		return b + bits.TrailingZeros64(word)
	}
	// The last probe revisits word i: its bits below b are the slots
	// furthest ahead, one turn on.
	for k := 1; k <= len(w.occ); k++ {
		j := (i + k) & (len(w.occ) - 1)
		if word := w.occ[j]; word != 0 {
			return j<<6 + bits.TrailingZeros64(word)
		}
	}
	panic("sim: empty wheel has a pending count")
}

// head returns the earliest event of slot s, or nil if s is empty.
func (w *wheel) head(s int) *event {
	if tail := w.slots[s]; tail != 0 {
		return &w.nodes[w.nodes[tail].next].ev
	}
	return nil
}

// pop removes the head of slot s, which must not be empty, into ev. The
// freed node is zeroed so the fired closure and its argument stay
// GC-able.
func (w *wheel) pop(s int, ev *event) {
	tail := w.slots[s]
	n := w.nodes[tail].next
	nd := &w.nodes[n]
	*ev = nd.ev
	if n == tail {
		w.slots[s] = 0
		w.occ[s>>6] &^= 1 << (s & 63)
	} else {
		w.nodes[tail].next = nd.next
	}
	nd.ev = event{}
	nd.next = w.free
	w.free = n
	w.n--
}
