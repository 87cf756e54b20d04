package cfg

// This file is the generic worklist solver. An analysis instantiates
// Problem[F] with its fact type and lattice operations; Solve iterates
// transfer functions to a fixpoint and returns the per-block facts.
//
// The contract is the textbook one: Join must be commutative,
// associative, and idempotent; Transfer must be monotone over the
// lattice order implied by Join; and the lattice must have finite
// height (or Transfer must converge anyway), otherwise Solve will not
// terminate. All mnlint analyzers use small powerset or flat-constant
// lattices, so convergence is immediate.

// Direction selects forward (facts flow entry -> exit along Succs) or
// backward (exit -> entry along Preds) propagation.
type Direction int

const (
	Forward Direction = iota
	Backward
)

// Problem describes one dataflow analysis over a Graph.
type Problem[F any] struct {
	Dir Direction

	// Boundary is the fact at the boundary block (Entry for Forward,
	// Exit for Backward).
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

	// EdgeTransfer, when non-nil, refines the fact flowing along one
	// specific edge before it joins into the successor — the hook
	// path-sensitive analyses (fsmcheck) use to learn from branch
	// conditions. For a block with a non-nil Cond, succIdx 0 is
	// the true edge and 1 the false edge. Only meaningful Forward.
	EdgeTransfer func(from *Block, succIdx int, out F) F
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
	boundary := g.Entry
	if p.Dir == Backward {
		boundary = g.Exit
	}
	sol.In[boundary.Index] = p.Boundary

	// Deterministic worklist: a FIFO queue seeded in block order, with
	// an on-queue bitmap to avoid duplicates. Block order approximates
	// reverse postorder for Forward (the builder emits blocks roughly
	// in source order), which keeps iteration counts small.
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

	flowOut := func(b *Block) []*Block {
		if p.Dir == Forward {
			return b.Succs
		}
		return b.Preds
	}
	for len(queue) > 0 {
		b := queue[0]
		queue = queue[1:]
		onQueue[b.Index] = false

		out := p.Transfer(b, sol.In[b.Index])
		sol.Out[b.Index] = out
		for si, s := range flowOut(b) {
			f := out
			if p.EdgeTransfer != nil && p.Dir == Forward {
				f = p.EdgeTransfer(b, si, out)
			}
			joined := p.Join(sol.In[s.Index], f)
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

// ReachableFrom computes, for a forward analysis helper, the set of
// blocks reachable from start (inclusive) following Succs. Analyzers
// use it for simple "does any path from A hit B" queries that do not
// need a full lattice.
func ReachableFrom(start *Block) map[*Block]bool {
	seen := map[*Block]bool{start: true}
	work := []*Block{start}
	for len(work) > 0 {
		b := work[len(work)-1]
		work = work[:len(work)-1]
		for _, s := range b.Succs {
			if !seen[s] {
				seen[s] = true
				work = append(work, s)
			}
		}
	}
	return seen
}
