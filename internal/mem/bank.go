// Package mem implements the bank-level memory array timing model shared
// by DRAM and NVM cubes. Each bank has a single row buffer (open-page
// policy), serially-reusable data path, activate/precharge timing
// constraints, and — for DRAM — periodic refresh. The model answers one
// question per access: given an arrival time, when is the access done and
// until when is the bank busy?
//
// A Controller owns a set of banks. Only what differs between banks (open
// row, dirty bit, activate time, busy-until, refresh phase) lives in each
// Bank; the timing parameters and the counters are the controller's, held
// once. A cube has hundreds of banks, so keeping the per-bank record small
// keeps a network build small, and reading a controller's counters costs
// the same however many banks it has.
package mem

import (
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

// Bank is the state of one independent memory bank.
type Bank struct {
	openRow      int64 // -1 = closed (precharged)
	lastActivate sim.Time
	busy         sim.Resource
	nextRefresh  sim.Time // 0 disabled
	dirty        bool     // open row has unwritten-back modifications
}

// Controller is the bank array behind one memory controller: its banks,
// their shared timing parameters and their summed counters.
type Controller struct {
	timing config.MemTiming
	banks  []Bank
	stats  BankStats
}

// NewController returns a controller of n banks. Bank i's refresh phase
// is phase + i*stagger, so that the banks do not refresh in lockstep; the
// phases are ignored for timings without refresh. It returns a value so
// the owner can embed it.
func NewController(timing config.MemTiming, n int, phase, stagger sim.Time) Controller {
	return NewControllerIn(make([]Bank, n), timing, phase, stagger)
}

// NewControllerIn is NewController for len(banks) banks laid out in
// banks, so that an owner can carve many controllers' banks from one
// slice. The controller owns banks from then on.
func NewControllerIn(banks []Bank, timing config.MemTiming, phase, stagger sim.Time) Controller {
	c := Controller{timing: timing, banks: banks}
	for i := range c.banks {
		b := &c.banks[i]
		b.openRow = -1
		if timing.RefInterval > 0 {
			b.nextRefresh = (phase + sim.Time(i)*stagger) % timing.RefInterval
			if b.nextRefresh == 0 {
				b.nextRefresh = timing.RefInterval
			}
		}
	}
	return c
}

// Banks reports the number of banks.
func (c *Controller) Banks() int { return len(c.banks) }

// Stats returns a copy of the counters, summed over all banks.
func (c *Controller) Stats() BankStats { return c.stats }

// Access performs a read or write of the given row of bank arriving at
// time now. It returns done, the time at which the access completes (data
// available for a read; write committed — and therefore acknowledgeable
// — for a write). The bank's data path is reserved internally, so
// back-to-back calls to one bank naturally queue.
func (c *Controller) Access(now sim.Time, bank int, row int64, kind AccessKind) (done sim.Time) {
	b := &c.banks[bank]
	t := &c.timing
	start := now
	if f := b.busy.FreeAt(); f > start {
		start = f
	}
	start = c.applyRefresh(b, start)

	var lat, background sim.Time
	switch {
	case b.openRow == row:
		c.stats.RowHits++
		lat = t.TCL + t.Burst
	case b.openRow < 0:
		c.stats.RowMisses++
		b.lastActivate = start
		lat = t.TRCD + t.TCL + t.Burst
	default:
		c.stats.RowConflicts++
		// Precharge may not begin before tRAS has elapsed since the
		// previous activate.
		if earliest := b.lastActivate + t.TRAS; earliest > start {
			start = earliest
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
		if b.dirty {
			background = t.TWR
			if idle := start - b.busy.FreeAt(); idle > 0 {
				background -= idle
			}
			if background < 0 {
				background = 0
			}
		}
		b.dirty = false
		b.lastActivate = start + t.TRP
		lat = t.TRP + t.TRCD + t.TCL + t.Burst
	}
	b.openRow = row

	if kind == Write {
		c.stats.Writes++
		b.dirty = true
	} else {
		c.stats.Reads++
	}

	done = start + lat
	b.busy.ReserveAt(start, done-start+background)
	c.stats.BusyTime += done - start + background
	return done
}

// applyRefresh advances start past any of bank b's refresh windows that
// are due, and schedules subsequent windows. Refresh is modeled per-bank:
// every RefInterval the bank is unavailable for RefDuration.
func (c *Controller) applyRefresh(b *Bank, start sim.Time) sim.Time {
	if b.nextRefresh <= 0 {
		return start
	}
	for b.nextRefresh <= start {
		end := b.nextRefresh + c.timing.RefDuration
		if end > start {
			start = end
		}
		b.nextRefresh += c.timing.RefInterval
		c.stats.Refreshes++
		// Refresh closes the row.
		b.openRow = -1
	}
	return start
}
