package sim

import (
	"math"
	"sort"
	"testing"
)

// FuzzEngineOrder decodes bytes into a mixed schedule — Schedule,
// ScheduleArg and At calls, handlers that schedule a follow-on, RunUntil,
// RunWhile and Step, an armed or disarmed probe, and wakeups that are
// deferred, then committed or left to lapse, from the top level or from
// inside a handler — and checks that events and committed wakeups fire
// in the stable (at, seq) sort of everything scheduled or reserved, with
// the clock reading each event's time; that a lapsed wakeup never runs
// but counts in Fired once its place has passed; that Pending counts
// deferred wakeups still ahead; and that a drain moves the clock through
// trailing wakeups. Pending and Fired are checked after every
// operation. Delays are drawn so that lane, wheel and overflow-heap
// events all occur, including the ones either side of the wheel's
// horizon.
func FuzzEngineOrder(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			data = data[:4096]
		}
		checkEngineOrder(t, data)
	})
}

// orderInput reads a fuzz input; past its end every read is zero.
type orderInput []byte

func (in *orderInput) next() byte {
	if len(*in) == 0 {
		return 0
	}
	c := (*in)[0]
	*in = (*in)[1:]
	return c
}

// delay decodes one delay. The top two bits of the first byte choose
// the scale: 0–63 ps; up to 16 ns, a few dozen slots; up to 4.2 µs, eight
// turns of the wheel; or the horizon plus a signed number of slots
// (second byte) and −32..31 ps (low six bits), which reaches exactly one
// slot short of, at, and one slot past the horizon.
func (in *orderInput) delay() Time {
	c := in.next()
	switch c >> 6 {
	case 0:
		return Time(c & 63)
	case 1:
		return Time(c&63)<<8 | Time(in.next())
	case 2:
		return Time(c&63)<<16 | Time(in.next())<<8 | Time(in.next())
	default:
		return wheelHorizon + Time(int8(in.next()))*slotWidth + Time(c&63) - 32
	}
}

// numWakeups is how many wakeups the engine fuzz drives.
const numWakeups = 4

// checkEngineOrder runs the schedule data encodes. Each op is one byte.
// Below 0x80 it is taken mod 8:
//
//	0 Schedule(delay)       4 RunUntil(now + delay)
//	1 ScheduleArg(delay)    5 RunWhile for n steps (next byte)
//	2 At(now + delay)       6 SetProbe(delay + 512 ps); with bit 3 set, disarm
//	3 Schedule(delay) whose handler schedules a follow-on at a second
//	  delay                 7 Step
//
// From 0x80 up it drives wakeup op&3 with action (op>>2)&3:
//
//	0 Defer(now + delay + 1 ps), unless the wakeup holds a reservation
//	  or a committed event that has not fired
//	1 touch: take a lapse if there is one, else Commit if deferred
//	2 let lapse: take a lapse if there is one, never Commit
//	3 Schedule(delay) whose handler touches the wakeup
func checkEngineOrder(t *testing.T, data []byte) {
	t.Helper()
	in := orderInput(data)
	e := NewEngine()
	var at []Time // at[id]: scheduled or reserved time; ids are in seq order
	var fired []int
	// The model's point reached in the firing order, (posAt, posID):
	// the last event run, a RunUntil deadline (posID maximal), or a
	// trailing wakeup a Step passed.
	posAt, posID := Time(0), -1
	passed := func(id int) bool { return at[id] < posAt || at[id] == posAt && id <= posID }
	fire := func(id int) {
		if e.Now() != at[id] {
			t.Fatalf("event %d scheduled for %v fired at %v", id, at[id], e.Now())
		}
		if n := len(fired); n > 0 {
			if last := fired[n-1]; at[id] < at[last] || at[id] == at[last] && id < last {
				t.Fatalf("event %d at %v fired after event %d at %v", id, at[id], last, at[last])
			}
		}
		fired = append(fired, id)
		posAt, posID = at[id], id
	}
	add := func(d Time) int {
		at = append(at, e.Now()+d)
		return len(at) - 1
	}
	fireArg := func(arg any) { fire(arg.(int)) }
	lastProbe := Time(-1)

	// Wakeup k holds reservation res[k] (deferred, not committed) or
	// has committed com[k] not yet fired; -1 when neither. wake[id]
	// marks the ids that are wakeup reservations, ran[id] the ones that
	// were committed.
	var wakeups [numWakeups]Wakeup
	var res, com [numWakeups]int
	wake, ran := map[int]bool{}, map[int]bool{}
	// wakeFn is every wakeup's event, committed with its wakeup index.
	wakeFn := func(arg any) {
		k := arg.(int)
		id := com[k]
		com[k] = -1
		fire(id)
	}
	for k := range wakeups {
		res[k], com[k] = -1, -1
		wakeups[k].Init(e)
	}
	// touch settles wakeup k the way an owner does; commit false only
	// takes a lapse.
	touch := func(k int, commit bool) {
		w := &wakeups[k]
		lapsed := w.Lapsed()
		if id := res[k]; id < 0 || !passed(id) {
			if lapsed {
				t.Fatalf("wakeup %d lapsed with reservation %d not passed", k, id)
			}
		} else if !lapsed {
			t.Fatalf("wakeup %d: reservation %d at %v passed but not lapsed", k, id, at[id])
		} else {
			res[k] = -1
		}
		if w.Deferred() != (res[k] >= 0) {
			t.Fatalf("wakeup %d: Deferred %v, reservation %d", k, w.Deferred(), res[k])
		}
		if commit && res[k] >= 0 {
			w.Commit(wakeFn, k)
			com[k], res[k] = res[k], -1
			ran[com[k]] = true
		}
	}
	// done counts the ids the engine must report as fired: events run
	// plus reservations never committed whose place has passed.
	done := func() int {
		n := len(fired)
		for id := range wake {
			if !ran[id] && passed(id) {
				n++
			}
		}
		return n
	}
	// predictStep moves the model's point as the coming Step will when
	// nothing is queued: to the earliest reservation still ahead.
	predictStep := func() {
		if len(fired) < len(at)-len(wake)+len(ran) {
			return // a queued event runs
		}
		next := -1
		for k := range res {
			if id := res[k]; id >= 0 && !passed(id) && (next < 0 || at[id] < at[next] || at[id] == at[next] && id < next) {
				next = id
			}
		}
		if next >= 0 {
			posAt, posID = at[next], next
		}
	}

	for len(in) > 0 {
		op := in.next()
		if op >= 0x80 {
			k := int(op & 3)
			switch (op >> 2) & 3 {
			case 0:
				d := in.delay() + 1
				if res[k] >= 0 || com[k] >= 0 {
					break
				}
				id := add(d)
				wakeups[k].Defer(at[id])
				res[k] = id
				wake[id] = true
			case 1:
				touch(k, true)
			case 2:
				touch(k, false)
			case 3:
				d := in.delay()
				id := add(d)
				e.Schedule(d, func() {
					fire(id)
					touch(k, true)
				})
			}
			if e.Pending() != len(at)-done() || e.Fired() != uint64(done()) {
				t.Fatalf("Pending %d, Fired %d; scheduled %d, done %d",
					e.Pending(), e.Fired(), len(at), done())
			}
			continue
		}
		switch op % 8 {
		case 0:
			d := in.delay()
			id := add(d)
			e.Schedule(d, func() { fire(id) })
		case 1:
			d := in.delay()
			e.ScheduleArg(d, fireArg, add(d))
		case 2:
			d := in.delay()
			id := add(d)
			e.At(e.Now()+d, func() { fire(id) })
		case 3:
			d, d2 := in.delay(), in.delay()
			id := add(d)
			e.Schedule(d, func() {
				fire(id)
				child := add(d2)
				e.Schedule(d2, func() { fire(child) })
			})
		case 4:
			deadline := e.Now() + in.delay()
			e.RunUntil(deadline)
			if e.Now() != deadline {
				t.Fatalf("RunUntil(%v) left the clock at %v", deadline, e.Now())
			}
			due := 0
			for _, a := range at {
				if a <= deadline {
					due++
				}
			}
			posAt, posID = deadline, math.MaxInt
			if due != done() {
				t.Fatalf("RunUntil(%v) fired %d events, %d were due", deadline, done(), due)
			}
		case 5:
			n, steps := int(in.next()), 0
			e.RunWhile(func() bool {
				steps++
				if steps > n {
					return false
				}
				predictStep()
				return true
			})
		case 6:
			if op&8 != 0 {
				e.SetProbe(0, nil)
				break
			}
			// A floor on the interval keeps probe calls per run bounded.
			every := in.delay() + slotWidth
			e.SetProbe(every, func(p Time) {
				if p != e.Now() || p%every != 0 || p <= lastProbe {
					t.Fatalf("probe at %v (every %v, clock %v, previous %v)", p, every, e.Now(), lastProbe)
				}
				if len(fired) > 0 && at[fired[len(fired)-1]] >= p {
					t.Fatalf("probe at %v after an event at %v", p, at[fired[len(fired)-1]])
				}
				// Everything before the boundary has passed, nothing at it.
				savedAt, savedID := posAt, posID
				posAt, posID = p, -1
				if e.Fired() != uint64(done()) {
					t.Fatalf("probe at %v: Fired %d, want %d", p, e.Fired(), done())
				}
				posAt, posID = savedAt, savedID
				lastProbe = p
			})
		case 7:
			predictStep()
			e.Step()
		}
		if e.Pending() != len(at)-done() || e.Fired() != uint64(done()) {
			t.Fatalf("Pending %d, Fired %d; scheduled %d, done %d",
				e.Pending(), e.Fired(), len(at), done())
		}
	}
	// The drain ends on the last item still ahead, trailing wakeups
	// included.
	end, ahead := e.Now(), map[int]bool{}
	for id := range at {
		ahead[id] = !passed(id)
	}
	e.Run()
	for id := range at {
		if a, old := ahead[id]; (a || !old) && at[id] > end {
			end = at[id]
		}
	}
	if e.Now() != end {
		t.Fatalf("drain ended at %v, want %v", e.Now(), end)
	}
	posAt, posID = end, math.MaxInt
	for k := range wakeups {
		if res[k] >= 0 && !wakeups[k].Lapsed() {
			t.Fatalf("wakeup %d still deferred after the drain", k)
		}
	}

	var want []int
	for id := range at {
		if !wake[id] || ran[id] {
			want = append(want, id)
		}
	}
	sort.SliceStable(want, func(i, j int) bool { return at[want[i]] < at[want[j]] })
	if len(fired) != len(want) || e.Pending() != 0 || e.Fired() != uint64(len(at)) {
		t.Fatalf("fired %d of %d events, %d pending, Fired %d of %d",
			len(fired), len(want), e.Pending(), e.Fired(), len(at))
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("position %d: fired event %d (at %v), want %d (at %v)",
				i, fired[i], at[fired[i]], want[i], at[want[i]])
		}
	}
}
