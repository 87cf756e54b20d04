// Package mem implements the bank-level memory array timing model shared
// by DRAM and NVM cubes. Each bank has a single row buffer (open-page
// policy), serially-reusable data path, activate/precharge timing
// constraints, and — for DRAM — periodic refresh. The model answers one
// question per access: given an arrival time, when is the access done and
// until when is the bank busy?
//
// A Controller owns a set of banks. Only what differs between banks (open
// row, dirty bit, busy-until, what is left of the tRAS window, refreshes
// done) lives in each Bank; the refresh phases and counters are the
// controller's, held once, and the timing parameters are shared by every
// controller of a technology. A cube has hundreds of
// banks, so keeping the per-bank record small keeps a network build
// small, and reading a controller's counters costs the same however many
// banks it has.
package mem

import (
	"fmt"
	"math"

	"memnet/internal/config"
	"memnet/internal/sim"
)

// AccessKind distinguishes reads from writes at the array level.
type AccessKind uint8

const (
	// Read fetches one 64B block.
	Read AccessKind = iota
	// Write stores one 64B block; for NVM the cell-write occupancy (tWR)
	// dominates and keeps the bank busy long after the command issues.
	Write
)

// BankStats aggregates a controller's bank counters, used by the latency
// and energy reports.
type BankStats struct {
	Reads        uint64
	Writes       uint64
	RowHits      uint64
	RowMisses    uint64 // closed-row activates
	RowConflicts uint64 // precharge-then-activate
	Refreshes    uint64
	// BusyTime accumulates bank data-path occupancy, for utilization
	// accounting.
	BusyTime sim.Time
}

// Bank is the state of one independent memory bank, packed into 24 B
// because a cube has hundreds of them and they are most of a network
// build. The zero Bank is a closed, clean bank that has seen no
// refresh, so a freshly allocated slice of banks needs no
// initialization.
//
// Rows must lie in [0, 2^63-1): row holds the open row plus one, so the
// 63 low bits cover every row the address mapper produces (below 2^58)
// and bit 63 is left for the dirty flag.
type Bank struct {
	busy sim.Resource
	// row is the open row plus one (0 = closed, precharged); bit 63 is
	// set while the open row has modifications not yet written back. A
	// refresh closes the row but leaves the flag, which the next row
	// conflict then pays for.
	row uint64
	// rasLeft is how far the last activate's tRAS window reaches past
	// busy.FreeAt(), 0 once the window has closed. Every access starts
	// at or after FreeAt, so this is all of the activate time the model
	// needs. It fits because TRAS is at most config.MaxTRAS.
	rasLeft uint32
	// refs counts the refreshes applied; the controller derives the next
	// refresh time from it and the bank's refresh phase.
	refs uint32
}

// dirtyBit is Bank.row's dirty flag.
const dirtyBit = 1 << 63

// Controller is the bank array behind one memory controller: its banks,
// their refresh phases and summed counters, and the timing parameters
// they share.
type Controller struct {
	timing         *config.MemTiming
	phase, stagger sim.Time
	banks          []Bank
	stats          BankStats
}

// NewController returns a controller of n banks. Bank i's refresh phase
// is phase + i*stagger, so that the banks do not refresh in lockstep; the
// phases are ignored for timings without refresh. It returns a value so
// the owner can embed it.
//
// A bank counts its refreshes in 32 bits and panics at the 2^32nd, which
// is 33,500 s of simulated time at the default 7.8 µs interval. It
// panics if timing.TRAS is outside [0, config.MaxTRAS], which
// config.(*System).Validate rules out.
func NewController(timing config.MemTiming, n int, phase, stagger sim.Time) Controller {
	return NewControllerIn(make([]Bank, n), &timing, phase, stagger)
}

// NewControllerIn is NewController for len(banks) banks laid out in
// banks and the timing parameters in *timing, so that an owner can carve
// many controllers' banks from one slice and share one timing set among
// the controllers of a technology. The banks must be zero, as a fresh
// slice is; the controller owns them from then on. *timing must not
// change while the controller is in use.
func NewControllerIn(banks []Bank, timing *config.MemTiming, phase, stagger sim.Time) Controller {
	if timing.TRAS < 0 || timing.TRAS > config.MaxTRAS {
		panic(fmt.Sprintf("mem: TRAS %d ps outside [0, %d]", int64(timing.TRAS), int64(config.MaxTRAS)))
	}
	return Controller{timing: timing, phase: phase, stagger: stagger, banks: banks}
}

// Banks reports the number of banks.
func (c *Controller) Banks() int { return len(c.banks) }

// Stats returns a copy of the counters, summed over all banks.
func (c *Controller) Stats() BankStats { return c.stats }

// Access performs a read or write of the given row of bank arriving at
// time now. It returns done, the time at which the access completes (data
// available for a read; write committed — and therefore acknowledgeable
// — for a write). The bank's data path is reserved internally, so
// back-to-back calls to one bank naturally queue. It panics if row is
// outside [0, 2^63-1).
func (c *Controller) Access(now sim.Time, bank int, row int64, kind AccessKind) (done sim.Time) {
	if uint64(row) >= dirtyBit-1 {
		panic(fmt.Sprintf("mem: row %d outside [0, 2^63-1)", row))
	}
	b := &c.banks[bank]
	t := c.timing
	start := now
	if f := b.busy.FreeAt(); f > start {
		start = f
	}
	// rasEnd is when the open row may first be precharged; once the
	// window has closed it is FreeAt, which no access starts before.
	rasEnd := b.busy.FreeAt() + sim.Time(b.rasLeft)
	if next := c.nextRefresh(b, bank); next > 0 && next <= start {
		start = c.refresh(b, bank, next, start)
	}

	key := uint64(row) + 1
	var lat, background sim.Time
	switch open := b.row &^ dirtyBit; {
	case open == key:
		c.stats.RowHits++
		lat = t.TCL + t.Burst
	case open == 0:
		c.stats.RowMisses++
		rasEnd = start + t.TRAS
		b.row |= key
		lat = t.TRCD + t.TCL + t.Burst
	default:
		c.stats.RowConflicts++
		// Precharge may not begin before tRAS has elapsed since the
		// previous activate.
		if rasEnd > start {
			start = rasEnd
		}
		// Evicting a dirty row requires committing its modified data to
		// the array — for PCM this is where the expensive cell-write
		// pulse (tWR = 320 ns) lands (decoupled sensing/buffering,
		// §2.4). The controller write-pauses in favor of demand
		// accesses: the eviction drains in the background after the new
		// activation, so it does not lengthen this access but occupies
		// the bank afterwards, throttling write bursts to one bank at
		// one row writeback per tWR. Idle time already spent cleaning
		// the row eagerly is credited.
		if b.row&dirtyBit != 0 {
			background = t.TWR
			if idle := start - b.busy.FreeAt(); idle > 0 {
				background -= idle
			}
			if background < 0 {
				background = 0
			}
		}
		rasEnd = start + t.TRP + t.TRAS
		b.row = key
		lat = t.TRP + t.TRCD + t.TCL + t.Burst
	}

	if kind == Write {
		c.stats.Writes++
		b.row |= dirtyBit
	} else {
		c.stats.Reads++
	}

	done = start + lat
	b.busy.ReserveAt(start, done-start+background)
	c.stats.BusyTime += done - start + background
	b.rasLeft = 0
	if left := rasEnd - b.busy.FreeAt(); left > 0 {
		b.rasLeft = uint32(left)
	}
	return done
}

// nextRefresh reports when bank i, whose state is b, next refreshes, or
// 0 for timings without refresh. Bank i first refreshes at its phase
// (phase + i*stagger) modulo the interval, or a whole interval in if
// that is 0, and then every interval.
func (c *Controller) nextRefresh(b *Bank, i int) sim.Time {
	iv := c.timing.RefInterval
	if iv <= 0 {
		return 0
	}
	first := (c.phase + sim.Time(i)*c.stagger) % iv
	if first == 0 {
		first = iv
	}
	return first + sim.Time(b.refs)*iv
}

// refresh advances start past bank b's (bank i's) refresh windows from
// next, which is due by start, and counts them. Refresh is modeled
// per-bank: every RefInterval the bank is unavailable for RefDuration.
// Access checks that one is due first, keeping this loop off its common
// path.
func (c *Controller) refresh(b *Bank, i int, next, start sim.Time) sim.Time {
	for next <= start {
		if end := next + c.timing.RefDuration; end > start {
			start = end
		}
		if b.refs == math.MaxUint32 {
			panic(fmt.Sprintf("mem: bank %d refresh count overflows at %v", i, next))
		}
		b.refs++
		next += c.timing.RefInterval
		c.stats.Refreshes++
		// Refresh closes the row.
		b.row &= dirtyBit
	}
	return start
}
