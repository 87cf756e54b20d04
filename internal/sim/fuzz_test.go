package sim

import (
	"sort"
	"testing"
)

// FuzzEngineOrder decodes bytes into a mixed schedule — Schedule,
// ScheduleArg and At calls, handlers that schedule a follow-on, RunUntil,
// RunWhile and Step, and an armed or disarmed probe — and checks that
// events fire in the stable (at, seq) sort of everything scheduled, with
// the clock reading each event's time, and that Pending and Fired agree
// with that sort after every operation. Delays are drawn so that lane,
// wheel and overflow-heap events all occur, including the ones either
// side of the wheel's horizon.
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

// checkEngineOrder runs the schedule data encodes. Each op is one byte,
// taken mod 8:
//
//	0 Schedule(delay)       4 RunUntil(now + delay)
//	1 ScheduleArg(delay)    5 RunWhile for n steps (next byte)
//	2 At(now + delay)       6 SetProbe(delay + 512 ps); with bit 3 set, disarm
//	3 Schedule(delay) whose handler schedules a follow-on at a second
//	  delay                 7 Step
func checkEngineOrder(t *testing.T, data []byte) {
	t.Helper()
	in := orderInput(data)
	e := NewEngine()
	var at []Time // at[id]: scheduled time; ids are in seq order
	var fired []int
	fire := func(id int) {
		if e.Now() != at[id] {
			t.Fatalf("event %d scheduled for %v fired at %v", id, at[id], e.Now())
		}
		fired = append(fired, id)
	}
	add := func(d Time) int {
		at = append(at, e.Now()+d)
		return len(at) - 1
	}
	fireArg := func(arg any) { fire(arg.(int)) }
	lastProbe := Time(-1)

	for len(in) > 0 {
		op := in.next()
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
			if due != len(fired) {
				t.Fatalf("RunUntil(%v) fired %d events, %d were due", deadline, len(fired), due)
			}
		case 5:
			n, steps := int(in.next()), 0
			e.RunWhile(func() bool { steps++; return steps <= n })
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
				lastProbe = p
			})
		case 7:
			e.Step()
		}
		if e.Pending() != len(at)-len(fired) || e.Fired() != uint64(len(fired)) {
			t.Fatalf("Pending %d, Fired %d; scheduled %d, fired %d",
				e.Pending(), e.Fired(), len(at), len(fired))
		}
	}
	e.Run()

	want := make([]int, len(at))
	for i := range want {
		want[i] = i
	}
	sort.SliceStable(want, func(i, j int) bool { return at[want[i]] < at[want[j]] })
	if len(fired) != len(want) || e.Pending() != 0 {
		t.Fatalf("fired %d of %d events, %d pending", len(fired), len(want), e.Pending())
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("position %d: fired event %d (at %v), want %d (at %v)",
				i, fired[i], at[fired[i]], want[i], at[want[i]])
		}
	}
}
