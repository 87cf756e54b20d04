package sim

import "testing"

// TestWakeupCommitKeepsReservedPlace: a wakeup deferred between two
// events at the same time and committed later fires between them, as
// the eagerly scheduled event would have.
func TestWakeupCommitKeepsReservedPlace(t *testing.T) {
	e := NewEngine()
	var order []string
	var w Wakeup
	w.Init(e)
	e.Schedule(10, func() { order = append(order, "before") })
	w.Defer(10)
	e.Schedule(10, func() { order = append(order, "after") })
	e.Schedule(5, func() { w.Commit(func(arg any) { order = append(order, arg.(string)) }, "wakeup") })
	e.Run()
	if len(order) != 3 || order[0] != "before" || order[1] != "wakeup" || order[2] != "after" {
		t.Fatalf("order %v, want [before wakeup after]", order)
	}
	if e.Fired() != 4 || e.Pending() != 0 {
		t.Fatalf("Fired %d Pending %d, want 4 and 0", e.Fired(), e.Pending())
	}
}

// TestWakeupLapseCountsAsFired: an untouched wakeup never runs, counts
// in Pending until its place and in Fired after it, is reported Passed
// (without effect) once its place has passed, and lapsed exactly once.
func TestWakeupLapseCountsAsFired(t *testing.T) {
	e := NewEngine()
	var w Wakeup
	w.Init(e)
	w.Defer(10)
	e.Schedule(10, func() {})
	if e.Pending() != 2 || e.Fired() != 0 {
		t.Fatalf("before: Pending %d Fired %d, want 2 and 0", e.Pending(), e.Fired())
	}
	if w.Passed() || w.Lapsed() {
		t.Fatal("passed or lapsed before its place")
	}
	e.Run()
	if e.Pending() != 0 || e.Fired() != 2 {
		t.Fatalf("after: Pending %d Fired %d, want 0 and 2", e.Pending(), e.Fired())
	}
	if !w.Passed() || !w.Passed() || !w.Deferred() {
		t.Fatal("want Passed, without releasing the reservation")
	}
	if !w.Lapsed() || w.Lapsed() || w.Deferred() || w.Passed() {
		t.Fatal("want one lapse, then nothing deferred")
	}
	if e.Fired() != 2 {
		t.Fatalf("Fired %d after the lapse, want 2", e.Fired())
	}
}

// TestWakeupDrainAndRunUntil: a drain moves the clock through trailing
// wakeups in order, and RunUntil passes every wakeup up to its deadline.
func TestWakeupDrainAndRunUntil(t *testing.T) {
	e := NewEngine()
	var a, b Wakeup
	a.Init(e)
	b.Init(e)
	a.Defer(30)
	b.Defer(20)
	if !e.Step() || e.Now() != 20 || e.Fired() != 1 {
		t.Fatalf("first step: clock %v Fired %d, want 20 and 1", e.Now(), e.Fired())
	}
	if e.RunUntil(40) != 1 || e.Now() != 40 || e.Fired() != 2 || e.Step() {
		t.Fatalf("RunUntil: clock %v Fired %d", e.Now(), e.Fired())
	}
	b.Lapsed()
	b.Defer(50)
	e.RunUntil(50)
	if !b.Lapsed() {
		t.Fatal("a wakeup at the RunUntil deadline did not pass")
	}
}

// TestWakeupMisusePanics: deferring into the past or twice, committing
// a wakeup that is not deferred or has passed, and committing a nil
// handler, panic.
func TestWakeupMisusePanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	e := NewEngine()
	nop := func(any) {}
	var w Wakeup
	w.Init(e)
	mustPanic("Defer(now)", func() { w.Defer(0) })
	mustPanic("Commit without Defer", func() { w.Commit(nop, nil) })
	w.Defer(10)
	mustPanic("second Defer", func() { w.Defer(20) })
	mustPanic("nil handler", func() { w.Commit(nil, nil) })
	if !w.Deferred() {
		t.Fatal("a nil-handler Commit released the reservation")
	}
	e.RunUntil(10)
	mustPanic("Commit after the place", func() { w.Commit(nop, nil) })
	mustPanic("second Init", func() { w.Init(e) })
}
