package mem

import (
	"fmt"
	"math"
	"testing"

	"memnet/internal/config"
	"memnet/internal/sim"
)

// refBank is a test-only copy of the bank model as it was before timing
// and counters moved to the Controller and the bank record was packed:
// every bank carries its own copy of the timing parameters, its own
// counters, its open row as a signed row number, its last activate time
// and its next refresh time. TestControllerMatchesRef and
// FuzzControllerRef run it beside a Controller.
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

// openRow reports b's open row, -1 when closed.
func openRow(b *Bank) int64 { return int64(b.row&^dirtyBit) - 1 }

// dirty reports whether b's open row has unwritten-back modifications.
func dirty(b *Bank) bool { return b.row&dirtyBit != 0 }

// diffRef compares bank i of c with its reference r on the state the
// packed record encodes: open row, dirty flag, busy-until, the last
// activate time while its tRAS window is open (and that it is closed
// when rasLeft is 0), and the next refresh time. It returns "" when they
// agree.
func diffRef(c *Controller, i int, r *refBank) string {
	type state struct {
		row               int64
		dirty             bool
		busy, nextRefresh sim.Time
	}
	b := &c.banks[i]
	free := b.busy.FreeAt()
	got := state{openRow(b), dirty(b), free, c.nextRefresh(b, i)}
	want := state{r.openRow, r.dirty, r.busy.FreeAt(), r.nextRefresh}
	if got != want {
		return fmt.Sprintf("bank %d: %+v, reference %+v", i, got, want)
	}
	rasEnd := r.lastActivate + c.timing.TRAS
	if b.rasLeft > 0 && free+sim.Time(b.rasLeft) != rasEnd ||
		b.rasLeft == 0 && rasEnd > free {
		return fmt.Sprintf("bank %d: tRAS window %v past busy %v, reference activate %v + tRAS %v",
			i, b.rasLeft, free, r.lastActivate, c.timing.TRAS)
	}
	return ""
}

// sumStats adds up the reference banks' counters.
func sumStats(refs []refBank) BankStats {
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
	return sum
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
				if seed%2 == 0 {
					// Rows that differ only above bit 31.
					row = 1<<40 | row<<32
				}
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
				if d := diffRef(&c, bank, &refs[bank]); d != "" {
					t.Fatalf("%s seed %d step %d: %s", tc.name, seed, step, d)
				}
			}
			sum := sumStats(refs)
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

// FuzzControllerRef runs a Controller beside one refBank per bank under
// arbitrary timings (TRAS up to config.MaxTRAS, refresh intervals down to
// 1 ps), refresh phases and staggers, and 64-bit rows. ops is a list of
// 3-byte accesses: the bank; a byte whose low two bits pick one of the
// four rows, whose bit 2 makes it a write and whose high five bits are a
// shift; and a gap mantissa, so the access arrives gap<<shift after the
// previous one.
func FuzzControllerRef(f *testing.F) {
	d, v := config.Default().DRAMTiming, config.Default().NVMTiming
	for _, tm := range []config.MemTiming{d, v} {
		f.Add(uint64(tm.TRCD), uint64(tm.TCL), uint64(tm.TRP), uint64(tm.TRAS), uint64(tm.TWR),
			uint64(tm.Burst), uint64(tm.RefInterval), uint64(tm.RefDuration),
			uint64(3*sim.Microsecond), uint64(97*sim.Nanosecond), uint8(4),
			uint64(0), uint64(1), uint64(1<<40), uint64(1<<62),
			[]byte("\x00\x04\x10\x01\x01\x30\x00\x02\x60\x02\x07\x20\x01\xa3\xff\x03\x00\x01"))
	}
	f.Fuzz(func(t *testing.T, trcd, tcl, trp, tras, twr, burst, refInt, refDur, phase, stagger uint64,
		nBanks uint8, r0, r1, r2, r3 uint64, ops []byte) {
		const timingCap = 1 << 33
		tm := config.MemTiming{
			TRCD:  sim.Time(trcd % timingCap),
			TCL:   sim.Time(tcl % timingCap),
			TRP:   sim.Time(trp % timingCap),
			TRAS:  sim.Time(tras % (uint64(config.MaxTRAS) + 1)),
			TWR:   sim.Time(twr % timingCap),
			Burst: sim.Time(burst % timingCap),
		}
		if refInt%timingCap != 0 {
			// A refresh must end before the next begins, or the
			// reference never leaves its refresh loop.
			tm.RefInterval = sim.Time(refInt % timingCap)
			tm.RefDuration = sim.Time(refDur % uint64(tm.RefInterval))
		}
		n := 1 + int(nBanks%16)
		// Keep phase + (n-1)*stagger well inside int64.
		ph, st := sim.Time(phase>>3), sim.Time(stagger>>7)
		var rows [4]int64
		for i, r := range []uint64{r0, r1, r2, r3} {
			rows[i] = int64(r &^ dirtyBit)
			if rows[i] == math.MaxInt64 {
				rows[i]-- // the one int64 row the packed record cannot hold
			}
		}
		if len(ops) > 3*512 {
			ops = ops[:3*512]
		}
		ops = ops[:len(ops)/3*3]

		// Each access can wait out every timing once, so the run ends
		// before this horizon; both models step through every refresh
		// up to it, so keep that count bounded.
		perAccess := tm.TRCD + tm.TCL + tm.TRP + tm.TRAS + tm.TWR + tm.Burst + tm.RefDuration
		horizon := sim.Time(len(ops)/3) * perAccess
		for i := 0; i < len(ops); i += 3 {
			horizon += sim.Time(ops[i+2]) << (ops[i+1] >> 3)
		}
		if tm.RefInterval > 0 && horizon/tm.RefInterval > 1<<16 {
			return
		}

		c := NewController(tm, n, ph, st)
		refs := make([]refBank, n)
		for i := range refs {
			refs[i] = newRefBank(tm, ph+sim.Time(i)*st)
		}
		var now sim.Time
		for i := 0; i < len(ops); i += 3 {
			now += sim.Time(ops[i+2]) << (ops[i+1] >> 3)
			bank := int(ops[i]) % n
			row := rows[ops[i+1]&3]
			kind := Read
			if ops[i+1]&4 != 0 {
				kind = Write
			}
			got := c.Access(now, bank, row, kind)
			want := refs[bank].Access(now, row, kind)
			if got != want {
				t.Fatalf("access %d: bank %d row %d %v at %v done %v, reference %v (timing %+v)",
					i/3, bank, row, kind, now, got, want, tm)
			}
			if d := diffRef(&c, bank, &refs[bank]); d != "" {
				t.Fatalf("access %d at %v: %s (timing %+v)", i/3, now, d, tm)
			}
		}
		if got, want := c.Stats(), sumStats(refs); got != want {
			t.Fatalf("controller stats %+v, sum of reference banks %+v", got, want)
		}
	})
}
