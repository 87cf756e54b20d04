package mem

import (
	"testing"

	"memnet/internal/config"
	"memnet/internal/sim"
)

// refBank is a test-only copy of the bank model as it was before timing
// and counters moved to the Controller: every bank carries its own copy
// of the timing parameters and its own counters. TestControllerMatchesRef
// runs it beside a Controller.
type refBank struct {
	timing config.MemTiming

	openRow      int64
	dirty        bool
	lastActivate sim.Time
	busy         sim.Resource

	nextRefresh sim.Time

	stats BankStats
}

func newRefBank(timing config.MemTiming, refreshOffset sim.Time) refBank {
	b := refBank{timing: timing, openRow: -1}
	if timing.RefInterval > 0 {
		b.nextRefresh = refreshOffset % timing.RefInterval
		if b.nextRefresh == 0 {
			b.nextRefresh = timing.RefInterval
		}
	}
	return b
}

func (b *refBank) Access(now sim.Time, row int64, kind AccessKind) (done sim.Time) {
	start := now
	if f := b.busy.FreeAt(); f > start {
		start = f
	}
	start = b.applyRefresh(start)

	var lat, background sim.Time
	switch {
	case b.openRow == row:
		b.stats.RowHits++
		lat = b.timing.TCL + b.timing.Burst
	case b.openRow < 0:
		b.stats.RowMisses++
		b.lastActivate = start
		lat = b.timing.TRCD + b.timing.TCL + b.timing.Burst
	default:
		b.stats.RowConflicts++
		if earliest := b.lastActivate + b.timing.TRAS; earliest > start {
			start = earliest
		}
		if b.dirty {
			background = b.timing.TWR
			if idle := start - b.busy.FreeAt(); idle > 0 {
				background -= idle
			}
			if background < 0 {
				background = 0
			}
		}
		b.dirty = false
		b.lastActivate = start + b.timing.TRP
		lat = b.timing.TRP + b.timing.TRCD + b.timing.TCL + b.timing.Burst
	}
	b.openRow = row

	if kind == Write {
		b.stats.Writes++
		b.dirty = true
	} else {
		b.stats.Reads++
	}

	done = start + lat
	b.busy.ReserveAt(start, done-start+background)
	b.stats.BusyTime += done - start + background
	return done
}

func (b *refBank) applyRefresh(start sim.Time) sim.Time {
	if b.nextRefresh <= 0 {
		return start
	}
	for b.nextRefresh <= start {
		end := b.nextRefresh + b.timing.RefDuration
		if end > start {
			start = end
		}
		b.nextRefresh += b.timing.RefInterval
		b.stats.Refreshes++
		b.openRow = -1
	}
	return start
}

// TestControllerMatchesRef drives random read/write sequences, spanning
// many refresh intervals, through a Controller and through one refBank
// per bank. Every completion time and every bank's state must agree, and
// the controller's counters must equal the sum of the reference banks'.
func TestControllerMatchesRef(t *testing.T) {
	for _, tc := range []struct {
		name   string
		timing config.MemTiming
	}{
		{"dram", config.Default().DRAMTiming},
		{"nvm", config.Default().NVMTiming},
	} {
		for seed := uint64(1); seed <= 8; seed++ {
			rng := sim.NewRand(seed)
			n := 1 + rng.Intn(16)
			phase := sim.Time(rng.Int63n(int64(20 * sim.Microsecond)))
			stagger := sim.Time(rng.Int63n(int64(200 * sim.Nanosecond)))
			c := NewController(tc.timing, n, phase, stagger)
			refs := make([]refBank, n)
			for i := range refs {
				refs[i] = newRefBank(tc.timing, phase+sim.Time(i)*stagger)
			}
			rows := 2 + rng.Int63n(3) // few rows: hits, misses and conflicts all occur
			var now sim.Time
			for step := 0; step < 5000; step++ {
				// Mostly short gaps so banks queue, occasionally a jump
				// over one or more refresh intervals.
				if rng.Intn(50) == 0 {
					now += sim.Time(rng.Int63n(int64(20 * sim.Microsecond)))
				} else {
					now += sim.Time(rng.Int63n(int64(30 * sim.Nanosecond)))
				}
				bank := rng.Intn(n)
				row := rng.Int63n(rows)
				kind := Read
				if rng.Intn(3) == 0 {
					kind = Write
				}
				got := c.Access(now, bank, row, kind)
				want := refs[bank].Access(now, row, kind)
				if got != want {
					t.Fatalf("%s seed %d step %d: bank %d row %d %v done %v, reference %v",
						tc.name, seed, step, bank, row, kind, got, want)
				}
				b, r := &c.banks[bank], &refs[bank]
				if b.openRow != r.openRow || b.dirty != r.dirty || b.lastActivate != r.lastActivate ||
					b.busy != r.busy || b.nextRefresh != r.nextRefresh {
					t.Fatalf("%s seed %d step %d: bank %d state %+v, reference %+v",
						tc.name, seed, step, bank, *b, *r)
				}
			}
			var sum BankStats
			for i := range refs {
				s := refs[i].stats
				sum.Reads += s.Reads
				sum.Writes += s.Writes
				sum.RowHits += s.RowHits
				sum.RowMisses += s.RowMisses
				sum.RowConflicts += s.RowConflicts
				sum.Refreshes += s.Refreshes
				sum.BusyTime += s.BusyTime
			}
			if got := c.Stats(); got != sum {
				t.Fatalf("%s seed %d: controller stats %+v, sum of reference banks %+v",
					tc.name, seed, got, sum)
			}
			if tc.timing.RefInterval > 0 && sum.Refreshes == 0 {
				t.Fatalf("%s seed %d: sequence crossed no refresh", tc.name, seed)
			}
			if sum.RowHits == 0 || sum.RowMisses == 0 || sum.RowConflicts == 0 {
				t.Fatalf("%s seed %d: sequence missed an access case: %+v", tc.name, seed, sum)
			}
		}
	}
}
