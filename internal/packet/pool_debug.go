//go:build simdebug

package packet

// poolDebug enables the free-list membership guard. Build with
// -tags simdebug to turn a silent double-Put (two aliases of one
// packet on the free list, which Get later hands to two concurrent
// transactions), or a Put of a packet some queue still links, into an
// immediate panic at the offending call site.
const poolDebug = true

// debugPut records p as pooled, panicking on a double free or on a
// packet that is still in a queue.
func (pl *Pool) debugPut(p *Packet) {
	if p.Queued() {
		panic("packet: Put of a packet that is still in a queue")
	}
	if _, pooled := pl.inPool[p]; pooled {
		panic("packet: double Put: packet is already on the pool free list")
	}
	if pl.inPool == nil {
		pl.inPool = make(map[*Packet]struct{})
	}
	pl.inPool[p] = struct{}{}
}

// debugReserve sizes a new guard for the n packets Reserve is about to
// pool, so a reserve grows the guard once, not by rehashing.
func (pl *Pool) debugReserve(n int) {
	if pl.inPool == nil {
		pl.inPool = make(map[*Packet]struct{}, n)
	}
}

// debugGet clears p's pooled mark when it is reissued.
func (pl *Pool) debugGet(p *Packet) {
	delete(pl.inPool, p)
}
