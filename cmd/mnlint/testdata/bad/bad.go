// Package bad reads a packet after releasing it to the pool.
package bad

import "memnet/internal/packet"

// Release returns p to pl, then reads it.
func Release(pl *packet.Pool, p *packet.Packet) uint64 {
	pl.Put(p)
	return p.ID
}
