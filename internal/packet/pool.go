package packet

import "slices"

// Pool is a free list of Packets for one simulation instance. A packet
// is allocated once per transaction at injection, mutated in place as it
// moves (request -> response via MakeResponse), and returned to the pool
// when the host retires the transaction, so steady-state forwarding
// performs no packet allocation at all.
//
// Pool is intentionally not safe for concurrent use: a simulation is a
// single-goroutine program and each Engine owns its own Pool. Parallel
// experiment runs use independent instances (and therefore independent
// pools), which keeps the free list lock-free.
type Pool struct {
	free []*Packet

	// inPool tracks free-list membership for the double-free guard. It
	// is only populated under the simdebug build tag (poolDebug); in
	// normal builds it stays nil and the guard code is eliminated as
	// dead, so the hot path pays nothing.
	inPool map[*Packet]struct{}
}

// Get returns a zeroed packet, reusing a retired one when available.
func (pl *Pool) Get() *Packet {
	if n := len(pl.free); n > 0 {
		p := pl.free[n-1]
		pl.free[n-1] = nil
		pl.free = pl.free[:n-1]
		if poolDebug {
			pl.debugGet(p)
		}
		return p
	}
	return new(Packet)
}

// Reserve adds n new packets to the free list, allocated together: a
// run that never holds more than n packets at once allocates no packet
// after it.
func (pl *Pool) Reserve(n int) {
	slab := make([]Packet, n)
	pl.free = slices.Grow(pl.free, n)
	if poolDebug {
		pl.debugReserve(n)
	}
	for i := range slab {
		if poolDebug {
			pl.debugPut(&slab[i])
		}
		pl.free = append(pl.free, &slab[i])
	}
}

// Put recycles a retired packet. The packet is zeroed immediately so a
// stale timestamp or address can never leak into its next transaction,
// and the caller must not retain the pointer. Returning a packet that
// is already on the free list is a use-after-free in waiting, and
// returning one still in a queue would cut that queue short; builds
// with -tags simdebug panic on either immediately (the runtime backstop
// to mnlint's static poolcheck rule).
func (pl *Pool) Put(p *Packet) {
	if poolDebug {
		pl.debugPut(p)
	}
	*p = Packet{}
	pl.free = append(pl.free, p)
}

// Free reports the current free-list depth (for tests and stats).
func (pl *Pool) Free() int { return len(pl.free) }
