// Package clean reads a packet before releasing it to the pool.
package clean

import "memnet/internal/packet"

// Release reads p, then returns it to pl.
func Release(pl *packet.Pool, p *packet.Packet) uint64 {
	id := p.ID
	pl.Put(p)
	return id
}
