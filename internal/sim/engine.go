package sim

import "fmt"

// Handler is a callback invoked when an event fires. The engine's current
// time equals the event's scheduled time for the duration of the call.
type Handler func()

// ArgHandler is a callback invoked with a caller-supplied argument. It
// exists so hot paths can store one bound callback per component (built
// once at construction) and pass the varying operand — typically a
// *packet.Packet — through the event itself, instead of allocating a
// fresh closure per Schedule call. Boxing a pointer into the arg is
// allocation-free.
type ArgHandler func(arg any)

// event is a scheduled callback. Events with equal times fire in the
// order they were scheduled (seq provides the stable tie-break), which
// makes whole-system simulations deterministic. Exactly one of fn/afn is
// set.
type event struct {
	at  Time
	seq uint64
	fn  Handler
	afn ArgHandler
	arg any
}

// Engine is a single-threaded discrete-event scheduler.
//
// The zero value is ready to use. An Engine is not safe for concurrent
// use; memnet simulations are deterministic single-goroutine programs and
// parallelism, when wanted, is obtained by running independent Engines
// (e.g. one per memory port, or one per benchmark configuration).
//
// Internally the engine keeps two structures:
//
//   - a hand-rolled 4-ary min-heap over a flat []event slice, ordered by
//     (time, seq). Compared with container/heap this removes the
//     interface{} boxing on every Push/Pop and the heap.Interface method
//     indirection, and the shallower tree halves the sift depth for the
//     queue sizes simulations reach. Popped and vacated slots are zeroed
//     so captured closures and packets stay GC-able.
//
//   - a zero-delay FIFO "fast lane" (a ring buffer) holding events
//     scheduled for the current instant. Same-timestamp follow-on events
//     — the dominant pattern in router/link/vault handoffs — enqueue and
//     dequeue in O(1) without touching the heap at all.
//
// The two structures preserve the global (time, seq) firing order: any
// heap event at the current instant was necessarily scheduled before time
// advanced to that instant, hence carries a smaller seq than every lane
// event (which was scheduled at the instant itself), so the heap is
// drained of current-time events before the lane.
type Engine struct {
	now   Time
	seq   uint64
	fired uint64

	// heap is the 4-ary min-heap: children of i are 4i+1..4i+4.
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
}

// NewEngine returns an engine with its clock at time zero.
func NewEngine() *Engine { return &Engine{} }

// Now reports the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Fired reports how many events have been executed so far. It is useful
// for cheap progress accounting and loop-guard assertions in tests.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending reports the number of events waiting in the queue.
func (e *Engine) Pending() int { return len(e.heap) + e.laneLen }

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
	e.enqueue(t, event{fn: fn})
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
	e.enqueue(t, event{afn: fn, arg: arg})
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
		e.now = e.probeAt
		e.probe(e.probeAt)
		e.probeAt += e.probeEvery
	}
	e.inProbe = false
}

// enqueue stamps the sequence number and routes the event to the fast
// lane (same-instant) or the heap (future).
func (e *Engine) enqueue(t Time, ev event) {
	if e.inProbe {
		panic("sim: scheduling from inside a probe")
	}
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling in the past: %v < now %v", t, e.now))
	}
	e.seq++
	ev.seq = e.seq
	ev.at = t
	if t == e.now {
		e.lanePush(ev)
		return
	}
	e.heapPush(ev)
}

// Step executes the single earliest pending event and returns true, or
// returns false if the queue is empty.
func (e *Engine) Step() bool {
	var ev event
	switch {
	case e.laneLen > 0:
		// Heap events at the current instant predate (smaller seq) every
		// lane event; drain them first.
		if len(e.heap) > 0 && e.heap[0].at == e.now {
			ev = e.heapPop()
		} else {
			ev = e.lanePop()
		}
	case len(e.heap) > 0:
		ev = e.heapPop()
		if e.probe != nil && ev.at >= e.probeAt {
			e.runProbe(ev.at)
		}
		e.now = ev.at
	default:
		return false
	}
	e.fired++
	if ev.fn != nil {
		ev.fn()
	} else {
		ev.afn(ev.arg)
	}
	return true
}

// Run executes events until the queue drains.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil executes events with scheduled time <= deadline. The clock is
// left at the deadline if it was reached, otherwise at the time of the
// last event. It returns the number of events executed.
func (e *Engine) RunUntil(deadline Time) uint64 {
	start := e.fired
	for e.nextAt(deadline) {
		e.Step()
	}
	if e.now < deadline {
		if e.probe != nil && deadline >= e.probeAt {
			e.runProbe(deadline)
		}
		e.now = deadline
	}
	return e.fired - start
}

// nextAt reports whether a pending event fires at or before deadline.
func (e *Engine) nextAt(deadline Time) bool {
	if e.laneLen > 0 {
		return e.now <= deadline
	}
	return len(e.heap) > 0 && e.heap[0].at <= deadline
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

// --- 4-ary min-heap over a flat slice --------------------------------

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

// heapPop removes and returns the minimum event. The vacated tail slot is
// zeroed so the popped event's closure (and anything it captures) does
// not linger in the slice's spare capacity.
func (e *Engine) heapPop() event {
	h := e.heap
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = event{}
	e.heap = h[:n]
	if n > 0 {
		e.siftDown(last)
	}
	return top
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

func (e *Engine) lanePush(ev event) {
	if e.laneLen == len(e.lane) {
		e.laneGrow()
	}
	e.lane[(e.laneHead+e.laneLen)&(len(e.lane)-1)] = ev
	e.laneLen++
}

func (e *Engine) lanePop() event {
	ev := e.lane[e.laneHead]
	e.lane[e.laneHead] = event{} // keep the fired closure GC-able
	e.laneHead = (e.laneHead + 1) & (len(e.lane) - 1)
	e.laneLen--
	return ev
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
