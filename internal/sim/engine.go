package sim

import "fmt"

// Handler is a callback invoked when an event fires. The engine's current
// time equals the event's scheduled time for the duration of the call.
type Handler func()

// ArgHandler is a callback invoked with a caller-supplied argument. It
// exists so schedules need not allocate a closure: a package-level
// handler takes its component as the argument (a link's pump, a
// router's sweep), or a handler bound once per component takes the
// varying operand, typically a *packet.Packet. Boxing a pointer into
// the arg is allocation-free.
type ArgHandler func(arg any)

// event is a scheduled callback, fn(arg). Events with equal times fire
// in the order they were scheduled (seq provides the stable tie-break),
// which makes whole-system simulations deterministic.
type event struct {
	at  Time
	seq uint64
	fn  ArgHandler
	arg any
}

// callHandler is the ArgHandler of every Schedule/At event: its
// argument is the Handler. A func value is pointer-shaped, so boxing it
// into the arg allocates nothing.
func callHandler(fn any) { fn.(Handler)() }

// Engine is a single-threaded discrete-event scheduler.
//
// The zero value is ready to use. An Engine is not safe for concurrent
// use; memnet simulations are deterministic single-goroutine programs and
// parallelism, when wanted, is obtained by running independent Engines
// (e.g. one per memory port, or one per benchmark configuration).
//
// Internally the engine keeps three structures:
//
//   - a zero-delay FIFO "fast lane" (a ring buffer) holding events
//     scheduled for the current instant. Same-timestamp follow-on events
//     — the dominant pattern in router/link/vault handoffs — enqueue and
//     dequeue in O(1).
//
//   - a timing wheel (see wheel.go) holding future events within about
//     524 ns of the clock: 1024 slots of 512 ps, each a circular linked
//     list in (time, seq) order named by its tail, with an occupancy
//     bitmap to find the next non-empty slot. Nearly every link, router
//     and bank delay lands here, and insert and pop are O(1).
//
//   - an overflow 4-ary min-heap over a flat []event slice, ordered by
//     (time, seq), for events beyond the wheel's horizon and for the rare
//     out-of-order insert that would walk more than maxWalk nodes of a
//     slot.
//
// A future event is popped from whichever of the wheel's earliest slot
// head and the heap top is smaller by (time, seq), so the firing order is
// exactly the (time, seq) sort of everything scheduled. Any future event
// at the current instant was scheduled before time advanced to that
// instant, hence carries a smaller seq than every lane event (scheduled
// at the instant itself), so it fires before the lane; checking for one
// looks only at the head of now's slot and the heap top. Popped and
// vacated slots are zeroed so captured closures and packets stay
// GC-able.
//
// Besides queued events, the engine accounts for deferred wakeups (see
// Wakeup): reserved (time, seq) places that hold no queue entry. A
// committed wakeup enters the wheel or the heap at its reserved place,
// never the lane — it was reserved before time reached its instant, so
// like any future event it precedes every lane event there. The engine
// tracks the seq of the event now firing (cur), so a place is passed
// once (time, seq) <= (now, cur); Fired counts passed wakeups and
// Pending the rest, and a drain (Step with nothing queued) moves the
// clock through the remaining ones in order.
type Engine struct {
	now   Time
	seq   uint64
	fired uint64
	// cur is the seq of the event now firing (or last fired), so that
	// (now, cur) is the point reached in the firing order; 0 means no
	// event at now has fired yet, the maximum that all have.
	cur uint64
	// lapsed counts wakeups whose owners found them lapsed; wakeups
	// links every initialized Wakeup.
	lapsed  uint64
	wakeups *Wakeup

	// heap is the 4-ary overflow min-heap: children of i are 4i+1..4i+4.
	heap []event

	// lane is the zero-delay ring buffer; capacity is a power of two.
	lane     []event
	laneHead int
	laneLen  int

	// probe is the telemetry sampling hook: it runs at every multiple
	// of probeEvery the clock crosses, between events, without being an
	// event itself — probes never enter the queue, never consume seq
	// numbers, and never count toward fired, so arming one cannot
	// change what the simulation does or reports. Probes are read-only
	// observers: scheduling from inside one panics.
	probe      func(at Time)
	probeEvery Time
	probeAt    Time
	inProbe    bool

	// wheel holds future events within one horizon of now. It is last
	// so its 4 KB of slot heads do not split the fields above across
	// distant cache lines.
	wheel wheel
}

// NewEngine returns an engine with its clock at time zero.
func NewEngine() *Engine { return &Engine{} }

// Now reports the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Fired reports how many events have been executed so far, counting
// each deferred wakeup whose place has passed as executed. It is useful
// for cheap progress accounting and loop-guard assertions in tests. It
// walks the engine's wakeups, so it is not for per-event use.
func (e *Engine) Fired() uint64 {
	return e.fired + e.lapsed + uint64(e.deferredCount(true))
}

// Pending reports the number of events waiting in the queue, counting
// each deferred wakeup whose place is still ahead.
func (e *Engine) Pending() int {
	return e.wheel.n + len(e.heap) + e.laneLen + e.deferredCount(false)
}

// Schedule arranges for fn to run after delay. A zero delay schedules the
// event at the current time; it will still run after the currently
// executing event returns (events never preempt each other).
func (e *Engine) Schedule(delay Time, fn Handler) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	e.At(e.now+delay, fn)
}

// At arranges for fn to run at absolute time t, which must not be in the
// past.
func (e *Engine) At(t Time, fn Handler) {
	if fn == nil {
		panic("sim: nil handler")
	}
	e.enqueue(t, callHandler, fn)
}

// ScheduleArg is Schedule for a bound ArgHandler: fn(arg) runs after
// delay. Reusing one stored fn across calls keeps the hot path
// allocation-free.
func (e *Engine) ScheduleArg(delay Time, fn ArgHandler, arg any) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	e.AtArg(e.now+delay, fn, arg)
}

// AtArg is At for a bound ArgHandler: fn(arg) runs at absolute time t.
func (e *Engine) AtArg(t Time, fn ArgHandler, arg any) {
	if fn == nil {
		panic("sim: nil handler")
	}
	e.enqueue(t, fn, arg)
}

// SetProbe arms fn to run at every multiple of every that the clock
// reaches or crosses, starting at the first multiple after the current
// time. The probe is not an event: it fires between events as time
// advances (and on RunUntil deadline advancement), adds nothing to the
// queue, and leaves Fired and the (time, seq) order untouched, so
// results are bit-identical with and without a probe. fn must only
// observe: calling Schedule/At from inside it panics. A nil fn disarms.
func (e *Engine) SetProbe(every Time, fn func(at Time)) {
	if fn == nil {
		e.probe = nil
		return
	}
	if every <= 0 {
		panic(fmt.Sprintf("sim: non-positive probe interval %v", every))
	}
	e.probe = fn
	e.probeEvery = every
	e.probeAt = (e.now/every + 1) * every
}

// runProbe fires the probe at every pending boundary up to and
// including upTo. The clock reads each boundary instant during its
// call, then the caller advances it to the event (or deadline) time.
func (e *Engine) runProbe(upTo Time) {
	e.inProbe = true
	for e.probeAt <= upTo {
		// A boundary is always after the clock, so nothing at it has
		// fired yet.
		e.now, e.cur = e.probeAt, 0
		e.probe(e.probeAt)
		e.probeAt += e.probeEvery
	}
	e.inProbe = false
}

// enqueue stamps the sequence number and routes the event to the fast
// lane (same-instant), the wheel (future, within the horizon) or the
// overflow heap. The event is written straight into the slot it gets.
func (e *Engine) enqueue(t Time, fn ArgHandler, arg any) {
	if e.inProbe {
		panic("sim: scheduling from inside a probe")
	}
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling in the past: %v < now %v", t, e.now))
	}
	e.seq++
	var slot *event
	switch {
	case t == e.now:
		slot = e.laneSlot()
	case inHorizon(e.now, t):
		slot = e.wheel.push(t, e.seq)
	}
	if slot == nil {
		e.heapPush(event{at: t, seq: e.seq, fn: fn, arg: arg})
		return
	}
	// Field by field: the slot is zero, and a composite literal would be
	// built on the stack and copied with wider loads than its stores.
	slot.at, slot.seq, slot.fn, slot.arg = t, e.seq, fn, arg
}

// insert queues fn(arg) at a place reserved earlier, (t, seq), into the
// wheel or the overflow heap. It never uses the lane: every lane event
// at t was scheduled at t, after the reservation, so it has a newer seq.
func (e *Engine) insert(t Time, seq uint64, fn ArgHandler, arg any) {
	var slot *event
	if inHorizon(e.now, t) {
		slot = e.wheel.push(t, seq)
	}
	if slot == nil {
		e.heapPush(event{at: t, seq: seq, fn: fn, arg: arg})
		return
	}
	slot.at, slot.seq, slot.fn, slot.arg = t, seq, fn, arg
}

// Step executes the single earliest pending event and returns true, or
// returns false if the queue is empty. Deferred wakeups whose places
// come before that event pass with it; when only deferred wakeups
// remain, Step moves the clock to the earliest one instead, passing it.
func (e *Engine) Step() bool {
	// The pops copy the event into ev rather than return it: a returned
	// event comes back in registers and is spilled and reloaded with
	// wider loads, a store-forwarding stall on every event.
	var ev event
	switch {
	case e.laneLen > 0:
		if e.dueNow() {
			e.popFuture(&ev)
		} else {
			e.lanePop(&ev)
		}
	case e.wheel.n > 0 || len(e.heap) > 0:
		e.popFuture(&ev)
		if e.probe != nil && ev.at >= e.probeAt {
			e.runProbe(ev.at)
		}
		e.now = ev.at
	default:
		return e.stepDeferred()
	}
	e.cur = ev.seq
	e.fired++
	ev.fn(ev.arg)
	return true
}

// dueNow reports whether a future event is due at the current instant.
// Such an event predates (smaller seq) every lane event, so it fires
// first. If there is one, it heads now's slot or tops the heap: the
// check is O(1) and never scans the wheel.
func (e *Engine) dueNow() bool {
	if h := e.wheel.head(slotOf(e.now)); h != nil && h.at == e.now {
		return true
	}
	return len(e.heap) > 0 && e.heap[0].at == e.now
}

// popFuture pops the earliest future event into ev: the head of the
// wheel's first occupied slot or the heap top, whichever is smaller by
// (time, seq).
func (e *Engine) popFuture(ev *event) {
	if e.wheel.n == 0 {
		e.heapPop(ev)
		return
	}
	s := e.wheel.first(e.now)
	if len(e.heap) > 0 && e.heap[0].before(e.wheel.head(s)) {
		e.heapPop(ev)
		return
	}
	e.wheel.pop(s, ev)
}

// Run executes events until the queue drains.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil executes events with scheduled time <= deadline. The clock is
// left at the deadline if it was reached, otherwise at the time of the
// last event; either way every deferred wakeup up to the deadline has
// passed. It returns the number of events executed, passed wakeups
// included.
func (e *Engine) RunUntil(deadline Time) uint64 {
	start := e.Fired()
	for e.nextAt(deadline) {
		e.Step()
	}
	if e.now < deadline {
		if e.probe != nil && deadline >= e.probeAt {
			e.runProbe(deadline)
		}
		e.now = deadline
	}
	if e.now == deadline {
		e.cur = ^uint64(0)
	}
	return e.Fired() - start
}

// nextAt reports whether a pending event fires at or before deadline.
func (e *Engine) nextAt(deadline Time) bool {
	if e.laneLen > 0 {
		return e.now <= deadline
	}
	if len(e.heap) > 0 && e.heap[0].at <= deadline {
		return true
	}
	return e.wheel.n > 0 && e.wheel.head(e.wheel.first(e.now)).at <= deadline
}

// RunWhile executes events while cond() remains true and events remain.
// cond is evaluated before each event. It returns true if the run stopped
// because cond became false (as opposed to the queue draining).
func (e *Engine) RunWhile(cond func() bool) bool {
	for cond() {
		if !e.Step() {
			return false
		}
	}
	return true
}

// --- overflow 4-ary min-heap over a flat slice -----------------------

// before reports heap ordering by (time, seq).
func (a *event) before(b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// heapPush inserts ev, sifting the hole up instead of swapping.
func (e *Engine) heapPush(ev event) {
	e.heap = append(e.heap, event{})
	h := e.heap
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !ev.before(&h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = ev
}

// heapPop removes the minimum event into top. The vacated tail slot is
// zeroed so the popped event's closure (and anything it captures) does
// not linger in the slice's spare capacity.
func (e *Engine) heapPop(top *event) {
	h := e.heap
	*top = h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = event{}
	e.heap = h[:n]
	if n > 0 {
		e.siftDown(last)
	}
}

// siftDown places ev starting from the root, moving smaller children up
// into the hole.
func (e *Engine) siftDown(ev event) {
	h := e.heap
	n := len(h)
	i := 0
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if h[j].before(&h[m]) {
				m = j
			}
		}
		if !h[m].before(&ev) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = ev
}

// --- zero-delay fast lane (ring buffer) ------------------------------

// laneSlot appends an empty slot to the ring and returns it.
func (e *Engine) laneSlot() *event {
	if e.laneLen == len(e.lane) {
		e.laneGrow()
	}
	ev := &e.lane[(e.laneHead+e.laneLen)&(len(e.lane)-1)]
	e.laneLen++
	return ev
}

func (e *Engine) lanePop(ev *event) {
	*ev = e.lane[e.laneHead]
	e.lane[e.laneHead] = event{} // keep the fired closure GC-able
	e.laneHead = (e.laneHead + 1) & (len(e.lane) - 1)
	e.laneLen--
}

// laneGrow doubles the ring (minimum 16 slots), unrolling it to the
// front of the new buffer.
func (e *Engine) laneGrow() {
	size := len(e.lane) * 2
	if size < 16 {
		size = 16
	}
	buf := make([]event, size)
	for i := 0; i < e.laneLen; i++ {
		buf[i] = e.lane[(e.laneHead+i)&(len(e.lane)-1)]
	}
	e.lane = buf
	e.laneHead = 0
}
