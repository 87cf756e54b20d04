package core

import (
	"sync"
	"sync/atomic"

	"memnet/internal/arb"
	"memnet/internal/link"
	"memnet/internal/mem"
	"memnet/internal/router"
	"memnet/internal/vault"
)

// arena is the memory a build lays one network out in: every component
// slab, the routers' port storage, the per-node table and the edge
// table. In each slice, the length is what the last build used and the
// capacity what the arena holds; everything past the length is zero.
// Simulate hands a finished run's arena to the next build through
// arenas, zeroed, so a pooled arena holds no pointer into a dead
// network.
type arena struct {
	banks    []mem.Bank
	quads    []vault.Quadrant
	links    []link.Direction
	bufs     []link.Buffer
	switches []switchPair
	faults   []link.Faults
	ports    router.Slab
	// nodes is the build's per-node table, indexed by node ID: each
	// entry holds its node's router and quadrants, every router routes
	// through its node's entry, every quadrant takes its return
	// distances from its cube's, and a dead cube's entry holds its
	// re-home spare.
	nodes []nodeCtx
	// dirs holds the two directions of every external edge, indexed like
	// Graph.Edges, for scheduled faults to down-bind or kill.
	dirs []edgeDirs
}

// arenas holds the arenas of finished Simulate runs for later builds.
// A miss costs a build nothing: it allocates its slabs as if there
// were no pool, and the arena header is allocated only when Simulate
// releases it.
var arenas sync.Pool

// recycled is set once a Simulate has pooled an arena. Until then
// Build leaves the pool alone: the first Get after each garbage
// collection allocates the pool's per-CPU table, which a process that
// only builds would pay for nothing.
var recycled atomic.Bool

// pooledArena returns an arena from the pool, or nil.
func pooledArena() *arena {
	if !recycled.Load() {
		return nil
	}
	a, _ := arenas.Get().(*arena)
	return a
}

// recycle pools a released arena for later builds.
func recycle(a *arena) {
	arenas.Put(a)
	recycled.Store(true)
}

// switchPair is a router and its arbiter, laid out together in a
// build's slab.
type switchPair struct {
	router router.Router
	arb    arb.Arbiter
}

// fit sizes *s to n zero elements, reusing its array when it holds n
// and allocating one of exactly n otherwise, and returns them with the
// capacity cut to n, so that take panics on a miscount.
func fit[T any](s *[]T, n int) []T {
	if cap(*s) < n {
		*s = make([]T, n)
	}
	*s = (*s)[:n]
	return (*s)[:n:n]
}

// take extends slab by one element within its capacity and returns it;
// it panics if the slab is full, which is a miscount.
func take[T any](slab *[]T) *T {
	*slab = (*slab)[:len(*slab)+1]
	return &(*slab)[len(*slab)-1]
}

// release zeroes in's arena and returns it in a header for arenas: the
// one in came in from the pool, or a new one. Nothing may use in, or
// anything it built, afterwards.
func (in *Instance) release() *arena {
	a := in.pooled
	if a == nil {
		a = new(arena)
	}
	*a = in.arena
	in.arena, in.pooled = arena{}, nil
	clear(a.banks)
	clear(a.quads)
	clear(a.links)
	clear(a.bufs)
	clear(a.switches)
	clear(a.faults)
	a.ports.Clear()
	clear(a.nodes)
	clear(a.dirs)
	return a
}
