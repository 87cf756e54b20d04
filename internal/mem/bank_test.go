package mem

import (
	"math"
	"testing"

	"memnet/internal/config"
	"memnet/internal/sim"
)

func dramTiming() config.MemTiming {
	t := config.Default().DRAMTiming
	t.RefInterval = 0 // most tests disable refresh for exact arithmetic
	return t
}

func nvmTiming() config.MemTiming {
	return config.Default().NVMTiming
}

// oneBank returns a controller with a single bank, refresh phase 0.
func oneBank(tm config.MemTiming) *Controller {
	c := NewController(tm, 1, 0, 0)
	return &c
}

// access performs an access on bank 0.
func (c *Controller) access(now sim.Time, row int64, kind AccessKind) sim.Time {
	return c.Access(now, 0, row, kind)
}

func TestRowMissTiming(t *testing.T) {
	tm := dramTiming()
	b := oneBank(tm)
	done := b.access(0, 5, Read)
	want := tm.TRCD + tm.TCL + tm.Burst
	if done != want {
		t.Fatalf("closed-row read done at %v, want %v", done, want)
	}
	if openRow(&b.banks[0]) != 5 {
		t.Fatal("row should stay open")
	}
	s := b.Stats()
	if s.RowMisses != 1 || s.RowHits != 0 || s.RowConflicts != 0 {
		t.Fatalf("stats %+v", s)
	}
}

func TestRowHitTiming(t *testing.T) {
	tm := dramTiming()
	b := oneBank(tm)
	first := b.access(0, 5, Read)
	done := b.access(first, 5, Read)
	if done != first+tm.TCL+tm.Burst {
		t.Fatalf("row hit done at %v, want %v", done, first+tm.TCL+tm.Burst)
	}
	if b.Stats().RowHits != 1 {
		t.Fatal("hit not counted")
	}
}

func TestRowConflictTiming(t *testing.T) {
	tm := dramTiming()
	b := oneBank(tm)
	first := b.access(0, 5, Read)
	// Conflict long after tRAS: full precharge + activate + read.
	start := first + 100*sim.Nanosecond
	done := b.access(start, 9, Read)
	want := start + tm.TRP + tm.TRCD + tm.TCL + tm.Burst
	if done != want {
		t.Fatalf("conflict read done at %v, want %v", done, want)
	}
	if b.Stats().RowConflicts != 1 {
		t.Fatal("conflict not counted")
	}
}

func TestTRASEnforced(t *testing.T) {
	tm := dramTiming()
	b := oneBank(tm)
	b.access(0, 5, Read) // activates at 0
	// Immediately conflicting access: precharge must wait until tRAS.
	done := b.access(1*sim.Nanosecond, 9, Read)
	// The bank is busy until the first access's data is out, but the
	// precharge additionally cannot start before tRAS = 33ns.
	earliestPrecharge := tm.TRAS
	want := earliestPrecharge + tm.TRP + tm.TRCD + tm.TCL + tm.Burst
	if done != want {
		t.Fatalf("tRAS-limited conflict done at %v, want %v", done, want)
	}
}

func TestDirtyWritebackOccupiesBank(t *testing.T) {
	tm := nvmTiming()
	b := oneBank(tm)
	wdone := b.access(0, 5, Write) // opens row 5, marks dirty
	// Immediate conflict: the eviction writeback drains in the
	// background, so this access's latency excludes tWR...
	d2 := b.access(wdone, 9, Read)
	if d2 >= wdone+tm.TWR {
		t.Fatalf("demand read waited for the full write pulse: %v", d2)
	}
	// ...but the bank stays occupied for the background writeback, so a
	// third access (row hit on 9) queues behind it.
	d3 := b.access(d2, 9, Read)
	if d3 < d2+tm.TWR {
		t.Fatalf("background writeback did not occupy the bank: %v < %v",
			d3, d2+tm.TWR)
	}
}

func TestEagerWritebackCredit(t *testing.T) {
	tm := nvmTiming()
	b := oneBank(tm)
	wdone := b.access(0, 5, Write)
	// After a long idle period the controller has already cleaned the
	// row: a conflicting access pays no writeback occupancy at all.
	start := wdone + tm.TWR + 10*sim.Nanosecond
	d2 := b.access(start, 9, Read)
	want := start + tm.TRP + tm.TRCD + tm.TCL + tm.Burst
	if d2 != want {
		t.Fatalf("eager-cleaned conflict done at %v, want %v", d2, want)
	}
	// And the bank frees right at d2 (no residual writeback).
	if b.banks[0].busy.FreeAt() != d2 {
		t.Fatalf("bank busy until %v, want %v", b.banks[0].busy.FreeAt(), d2)
	}
}

func TestCleanEvictionHasNoWriteback(t *testing.T) {
	tm := nvmTiming()
	b := oneBank(tm)
	rdone := b.access(0, 5, Read) // clean row
	d2 := b.access(rdone, 9, Read)
	want := rdone + tm.TRP + tm.TRCD + tm.TCL + tm.Burst
	if d2 != want {
		t.Fatalf("clean conflict done at %v, want %v", d2, want)
	}
	if b.banks[0].busy.FreeAt() != d2 {
		t.Fatal("no background occupancy expected for clean eviction")
	}
}

func TestBankSelfQueueing(t *testing.T) {
	tm := dramTiming()
	b := oneBank(tm)
	d1 := b.access(0, 1, Read)
	d2 := b.access(0, 1, Read) // same instant: must serialize
	if d2 <= d1 {
		t.Fatalf("concurrent accesses did not serialize: %v <= %v", d2, d1)
	}
	if d2 != d1+tm.TCL+tm.Burst {
		t.Fatalf("second access (row hit) done at %v, want %v", d2, d1+tm.TCL+tm.Burst)
	}
}

func TestRefresh(t *testing.T) {
	tm := config.Default().DRAMTiming // refresh on
	b := oneBank(tm)
	b.access(0, 1, Read)
	// Access right after the first refresh window opens.
	start := tm.RefInterval + 1
	done := b.access(start, 1, Read)
	// Refresh closed the row, so this is a miss, delayed by the
	// remaining refresh duration.
	wantStart := tm.RefInterval + tm.RefDuration
	want := wantStart + tm.TRCD + tm.TCL + tm.Burst
	if done != want {
		t.Fatalf("post-refresh access done at %v, want %v", done, want)
	}
	if b.Stats().Refreshes != 1 {
		t.Fatalf("refreshes = %d", b.Stats().Refreshes)
	}
	if b.Stats().RowMisses != 2 {
		t.Fatalf("refresh should close the row (misses=%d)", b.Stats().RowMisses)
	}
}

func TestNVMHasNoRefresh(t *testing.T) {
	tm := nvmTiming()
	if tm.RefInterval != 0 {
		t.Fatal("NVM timing should disable refresh")
	}
	b := oneBank(tm)
	b.access(0, 1, Read)
	b.access(100*sim.Millisecond, 1, Read)
	if b.Stats().Refreshes != 0 {
		t.Fatal("NVM refreshed")
	}
}

func TestRefreshStagger(t *testing.T) {
	tm := config.Default().DRAMTiming
	c := NewController(tm, 2, 0, 97*sim.Nanosecond)
	// Drive both past one interval and compare first-refresh effects via
	// access at the same instant.
	at := tm.RefInterval + 50*sim.Nanosecond
	d0 := c.Access(at, 0, 1, Read)
	d1 := c.Access(at, 1, 1, Read)
	if d0 == d1 {
		t.Fatal("staggered banks refreshed identically")
	}
}

func TestBusyTimeAccounting(t *testing.T) {
	tm := dramTiming()
	b := oneBank(tm)
	d := b.access(0, 1, Read)
	if b.Stats().BusyTime != d {
		t.Fatalf("busy %v != done %v", b.Stats().BusyTime, d)
	}
}

// panics reports whether f panics.
func panics(f func()) (did bool) {
	defer func() { did = recover() != nil }()
	f()
	return false
}

// TestRefreshCountLimit: a bank counts refreshes in 32 bits and panics
// at the 2^32nd rather than wrap to its first refresh time.
func TestRefreshCountLimit(t *testing.T) {
	tm := config.Default().DRAMTiming
	for _, tc := range []struct {
		refs  uint32
		panic bool
	}{
		{0, false},
		{math.MaxUint32 - 1, false},
		{math.MaxUint32, true},
	} {
		c := oneBank(tm)
		c.banks[0].refs = tc.refs
		at := c.nextRefresh(&c.banks[0], 0)
		if got := panics(func() { c.access(at, 1, Read) }); got != tc.panic {
			t.Errorf("%d refreshes done, refresh at %v: panic %v, want %v", tc.refs, at, got, tc.panic)
		}
		if !tc.panic && c.banks[0].refs != tc.refs+1 {
			t.Errorf("%d refreshes done: count %d after one more", tc.refs, c.banks[0].refs)
		}
	}
}

// TestControllerGuards: a controller refuses a TRAS its banks cannot
// hold and rows the packed record cannot hold.
func TestControllerGuards(t *testing.T) {
	withTRAS := func(tras sim.Time) config.MemTiming {
		tm := dramTiming()
		tm.TRAS = tras
		return tm
	}
	for _, tc := range []struct {
		name  string
		f     func()
		panic bool
	}{
		{"TRAS 0", func() { NewController(withTRAS(0), 1, 0, 0) }, false},
		{"TRAS at limit", func() { NewController(withTRAS(config.MaxTRAS), 1, 0, 0) }, false},
		{"TRAS negative", func() { NewController(withTRAS(-1), 1, 0, 0) }, true},
		{"TRAS 2^32", func() { NewController(withTRAS(config.MaxTRAS+1), 1, 0, 0) }, true},
		{"row 0", func() { oneBank(dramTiming()).access(0, 0, Read) }, false},
		{"row 2^63-2", func() { oneBank(dramTiming()).access(0, math.MaxInt64-1, Read) }, false},
		{"row 2^63-1", func() { oneBank(dramTiming()).access(0, math.MaxInt64, Read) }, true},
		{"row -1", func() { oneBank(dramTiming()).access(0, -1, Read) }, true},
	} {
		if got := panics(tc.f); got != tc.panic {
			t.Errorf("%s: panic %v, want %v", tc.name, got, tc.panic)
		}
	}
}
