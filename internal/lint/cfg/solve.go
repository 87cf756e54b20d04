package cfg

// This file is the generic worklist solver. An analysis instantiates
// Problem[F] with its fact type and lattice operations; Solve iterates
// transfer functions to a fixpoint and returns the per-block facts.
//
// The contract is the textbook one: Join must be commutative,
// associative, and idempotent; Transfer must be monotone over the
// lattice order implied by Join; and the lattice must have finite
// height (or Transfer must converge anyway), otherwise Solve will not
// terminate. poolcheck's powerset lattice converges immediately.

// Problem describes one forward dataflow analysis over a Graph: facts
// flow from Entry towards Exit along Succs.
type Problem[F any] struct {
	// Boundary is the fact at Entry.
	Boundary F
	// Init is the initial fact of every other block's input (the
	// lattice bottom).
	Init F

	// Transfer maps a block's input fact to its output fact. It must
	// not retain or mutate in: treat facts as values (copy before
	// changing shared structure).
	Transfer func(b *Block, in F) F
	// Join combines two facts at a control-flow merge.
	Join func(a, b F) F
	// Equal reports whether two facts are equal (fixpoint detection).
	Equal func(a, b F) bool
}

// Solution holds the fixpoint: the input and output fact of every
// block, indexed by Block.Index.
type Solution[F any] struct {
	In, Out []F
}

// Solve runs the worklist algorithm to a fixpoint.
func Solve[F any](g *Graph, p Problem[F]) *Solution[F] {
	n := len(g.Blocks)
	sol := &Solution[F]{In: make([]F, n), Out: make([]F, n)}
	for i := 0; i < n; i++ {
		sol.In[i] = p.Init
	}
	sol.In[g.Entry.Index] = p.Boundary

	// Deterministic worklist: a FIFO queue seeded in block order, with
	// an on-queue bitmap to avoid duplicates. Block order approximates
	// reverse postorder (the builder emits blocks roughly in source
	// order), which keeps iteration counts small.
	queue := make([]*Block, 0, n)
	onQueue := make([]bool, n)
	push := func(b *Block) {
		if !onQueue[b.Index] {
			onQueue[b.Index] = true
			queue = append(queue, b)
		}
	}
	for _, b := range g.Blocks {
		push(b)
	}
	for len(queue) > 0 {
		b := queue[0]
		queue = queue[1:]
		onQueue[b.Index] = false

		out := p.Transfer(b, sol.In[b.Index])
		sol.Out[b.Index] = out
		for _, s := range b.Succs {
			joined := p.Join(sol.In[s.Index], out)
			if !p.Equal(joined, sol.In[s.Index]) {
				sol.In[s.Index] = joined
				push(s)
			}
		}
	}
	// One final transfer so Out is consistent even for blocks whose In
	// never changed after seeding (already done in the loop above, but
	// blocks never popped with a late In update could be stale — the
	// worklist re-pushes on every In change, so Out is up to date).
	return sol
}
