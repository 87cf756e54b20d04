package sim

import "fmt"

// Wakeup is a future event whose owner knows it would do nothing unless
// the owner is touched first — a link's pump for the instant its wire
// frees with nothing queued, a router's crossbar retry with nothing to
// route. Instead of queueing such an event, the owner Defers it: the
// engine reserves the event's (time, seq) place in the firing order,
// exactly as At would, but queues nothing. Then either
//
//   - work reaches the owner before the place is passed, and the owner
//     Commits the wakeup with the event, which queues it at exactly the
//     reserved place (so it fires as the eagerly scheduled event would
//     have), or
//   - the place is passed untouched, and the owner, on its next entry,
//     finds the wakeup Lapsed and applies the event's no-op outcome
//     itself.
//
// Fired counts a deferred wakeup once its place has passed, so event
// counts match an engine that queued every wakeup. Committing is always
// exact; letting a wakeup lapse is exact only when nothing the event
// would have read changed in between, which is the owner's invariant.
//
// A Wakeup is only the reserved place: the owner names the event when it
// commits, so the wakeup stores no handler and every owner of one kind
// passes the same package-level one. It is held by value in its owner
// and linked into its engine by Init; it must not be copied afterwards.
// One Wakeup holds at most one reservation at a time.
type Wakeup struct {
	eng  *Engine
	next *Wakeup // the engine's list of every initialized wakeup
	at   Time
	seq  uint64
	// deferred is set while a reservation is held: neither committed
	// nor found lapsed.
	deferred bool
}

// Init binds the wakeup to e. It links the wakeup into e, so Fired,
// Pending and Step can account for it.
func (w *Wakeup) Init(e *Engine) {
	if w.eng != nil {
		panic("sim: Wakeup initialized twice")
	}
	w.eng = e
	w.next = e.wakeups
	e.wakeups = w
}

// Defer reserves the place an event At(t) would take now — time t and
// the next sequence number — without queueing anything. t must be after
// the current time and the wakeup must not already hold a reservation.
func (w *Wakeup) Defer(t Time) {
	e := w.eng
	if e.inProbe {
		panic("sim: scheduling from inside a probe")
	}
	if w.deferred {
		panic("sim: Wakeup deferred twice")
	}
	if t <= e.now {
		panic(fmt.Sprintf("sim: deferring a wakeup to %v, not after now %v", t, e.now))
	}
	e.seq++
	w.at, w.seq, w.deferred = t, e.seq, true
}

// Deferred reports whether the wakeup holds a reservation that has been
// neither committed nor found lapsed. Call Lapsed first: a deferred
// wakeup that is not lapsed can still be committed.
func (w *Wakeup) Deferred() bool { return w.deferred }

// Passed reports whether the wakeup holds a reservation whose place has
// passed without a commit, so that the next Lapsed reports true. Unlike
// Lapsed it changes nothing.
func (w *Wakeup) Passed() bool { return w.deferred && w.eng.passed(w.at, w.seq) }

// Lapsed reports, once, that the wakeup's reserved place has passed
// without a commit: the event is counted as fired and the caller must
// apply its no-op outcome. It then releases the reservation.
func (w *Wakeup) Lapsed() bool {
	if w.Passed() {
		w.deferred = false
		w.eng.lapsed++
		return true
	}
	return false
}

// Commit queues the event fn(arg) at the wakeup's reserved place and
// releases the reservation. The wakeup must be deferred and its place
// not yet passed. Owners pass a package-level handler and themselves as
// arg, so committing allocates nothing.
func (w *Wakeup) Commit(fn ArgHandler, arg any) {
	e := w.eng
	if e.inProbe {
		panic("sim: scheduling from inside a probe")
	}
	if fn == nil {
		panic("sim: nil handler")
	}
	if !w.deferred || e.passed(w.at, w.seq) {
		panic("sim: Commit of a wakeup that is not deferred or has passed")
	}
	w.deferred = false
	e.insert(w.at, w.seq, fn, arg)
}

// passed reports whether the place (at, seq) is at or before the event
// now firing — the point reached in the (time, seq) order.
func (e *Engine) passed(at Time, seq uint64) bool {
	return at < e.now || at == e.now && seq <= e.cur
}

// deferredCount counts the deferred wakeups whose places have passed
// (passed true) or are still ahead (passed false).
func (e *Engine) deferredCount(passed bool) int {
	n := 0
	for w := e.wakeups; w != nil; w = w.next {
		if w.deferred && e.passed(w.at, w.seq) == passed {
			n++
		}
	}
	return n
}

// stepDeferred moves the clock to the earliest deferred wakeup still
// ahead, passing it, when no event is queued. It reports false when
// there is none.
func (e *Engine) stepDeferred() bool {
	var next *Wakeup
	for w := e.wakeups; w != nil; w = w.next {
		if !w.deferred || e.passed(w.at, w.seq) {
			continue
		}
		if next == nil || w.at < next.at || w.at == next.at && w.seq < next.seq {
			next = w
		}
	}
	if next == nil {
		return false
	}
	if e.probe != nil && next.at >= e.probeAt {
		e.runProbe(next.at)
	}
	e.now, e.cur = next.at, next.seq
	return true
}
