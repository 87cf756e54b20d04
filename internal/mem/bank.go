// Package mem implements the bank-level memory array timing model shared
// by DRAM and NVM cubes. Each bank has a single row buffer (open-page
// policy), serially-reusable data path, activate/precharge timing
// constraints, and — for DRAM — periodic refresh. The model answers one
// question per access: given an arrival time, when is the access done and
// until when is the bank busy?
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

// BankStats aggregates per-bank counters used by the latency and energy
// reports.
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

// Bank models one independent memory bank.
type Bank struct {
	timing config.MemTiming
	tech   config.MemTech

	openRow      int64 // -1 = closed (precharged)
	dirty        bool  // open row has unwritten-back modifications
	lastActivate sim.Time
	busy         sim.Resource

	nextRefresh sim.Time // 0 disabled

	stats BankStats
}

// NewBank returns a bank of the given technology. refreshOffset staggers
// the bank's refresh phase so that banks of a cube do not refresh in
// lockstep; it is ignored for technologies without refresh. It returns
// a value so a controller can keep its banks in one []Bank.
func NewBank(tech config.MemTech, timing config.MemTiming, refreshOffset sim.Time) Bank {
	b := Bank{timing: timing, tech: tech, openRow: -1}
	if timing.RefInterval > 0 {
		b.nextRefresh = refreshOffset % timing.RefInterval
		if b.nextRefresh == 0 {
			b.nextRefresh = timing.RefInterval
		}
	}
	return b
}

// Tech reports the bank's memory technology.
func (b *Bank) Tech() config.MemTech { return b.tech }

// Stats returns a copy of the bank's counters.
func (b *Bank) Stats() BankStats { return b.stats }

// OpenRow reports the currently open row, or -1 if the bank is
// precharged. Exposed for tests and the topology inspector.
func (b *Bank) OpenRow() int64 { return b.openRow }

// Access performs a read or write of the given row arriving at time now.
// It returns done, the time at which the access completes (data available
// for a read; write committed — and therefore acknowledgeable — for a
// write). The bank's data path is reserved internally, so back-to-back
// calls naturally queue.
func (b *Bank) Access(now sim.Time, row int64, kind AccessKind) (done sim.Time) {
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
		// Precharge may not begin before tRAS has elapsed since the
		// previous activate.
		if earliest := b.lastActivate + b.timing.TRAS; earliest > start {
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

// applyRefresh advances start past any refresh windows that are due, and
// schedules subsequent windows. Refresh is modeled per-bank: every
// RefInterval the bank is unavailable for RefDuration.
func (b *Bank) applyRefresh(start sim.Time) sim.Time {
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
		// Refresh closes the row.
		b.openRow = -1
	}
	return start
}

// FreeAt reports when the bank's data path next becomes free.
func (b *Bank) FreeAt() sim.Time { return b.busy.FreeAt() }
