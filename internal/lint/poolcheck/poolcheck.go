// Package poolcheck implements the mnlint analyzer that enforces the
// packet-pool ownership rule: once a *packet.Packet is returned to
// packet.Pool via Put, the releasing function must not touch it again.
//
// Pool.Put zeroes the packet immediately and recycles it into the next
// transaction, so a read after Put observes zeroed (or, worse,
// re-populated) fields — the classic use-after-free this repo's PR 1
// host-port ownership comment warns about. The analyzer runs a forward
// may-analysis over the internal/lint/cfg control-flow graph, tracking
// two bits per local packet variable:
//
//   - freed: the variable was handed to Pool.Put on some path to here.
//     Any later syntactic use — a field access, a second Put, passing
//     it to a call — is flagged, until an assignment rebinds the
//     variable (e.g. a fresh pool.Get).
//   - scheduled: the variable was bound into a pending event via
//     sim.Engine.ScheduleArg / AtArg, which will read it at a later
//     simulated instant. A Put while the binding is live releases
//     memory the callback will still read, and is flagged.
//
// Path sensitivity comes from the CFG: a Put in one branch does not
// poison the other branch, a Put inside a loop body flags the next
// iteration's use across the back edge, and a deferred Put is checked
// at the function's exit (where the CFG replays deferred calls) rather
// than at its registration site. Nested function literals are separate
// functions: a closure runs at a different simulated time, so order
// against the enclosing body is not an execution order.
package poolcheck

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"memnet/internal/lint/analysis"
	"memnet/internal/lint/cfg"
	"memnet/internal/lint/lintutil"
)

// Analyzer is the poolcheck analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "poolcheck",
	Doc: "flag reads or re-schedules of a *packet.Packet after it is released " +
		"to packet.Pool (use-after-free on the packet free list)",
	Run: run,
}

const (
	packetPkg = "memnet/internal/packet"
	simPkg    = "memnet/internal/sim"
)

func run(pass *analysis.Pass) (any, error) {
	for _, f := range pass.Files {
		for _, fb := range lintutil.Functions(f) {
			checkFunc(pass, fb.Body)
		}
	}
	return nil, nil
}

// pstate is one tracked packet variable's dataflow value.
type pstate struct {
	// freedAt is the position of the Pool.Put that released the
	// variable's packet on some path, or NoPos while it is live.
	freedAt token.Pos
	// scheds are the positions of ScheduleArg/AtArg calls whose pending
	// events still reference the packet (sorted, deduplicated).
	scheds []token.Pos
}

// state maps tracked packet variables to their value; absent means
// live and unscheduled. nil is the dataflow bottom (block unvisited).
type state map[types.Object]pstate

func (st state) clone() state {
	out := make(state, len(st))
	for k, v := range st {
		out[k] = v
	}
	return out
}

// checkFunc solves the ownership dataflow over one function body and
// replays each block to report violations with the flow state in hand.
func checkFunc(pass *analysis.Pass, body *ast.BlockStmt) {
	// Cheap pre-filter: most functions never touch a Pool.
	touches := false
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && lintutil.IsMethodOn(pass.TypesInfo, call, packetPkg, "Pool", "Put") {
			touches = true
		}
		return !touches
	})
	if !touches {
		return
	}
	g := cfg.New(body)
	prob := cfg.Problem[state]{
		Boundary: state{},
		Init:     nil,
		Transfer: func(blk *cfg.Block, in state) state {
			st := in.clone()
			for _, n := range blk.Nodes {
				scanNode(pass, n, st, nil)
			}
			return st
		},
		Join:  joinState,
		Equal: equalState,
	}
	sol := cfg.Solve(g, prob)
	for _, blk := range g.Blocks {
		st := sol.In[blk.Index]
		if st == nil && blk != g.Entry {
			continue // unreachable
		}
		st = st.clone()
		for _, n := range blk.Nodes {
			scanNode(pass, n, st, pass)
		}
		if blk.Cond != nil {
			scanNode(pass, blk.Cond, st, pass)
		}
	}
}

// scanNode applies one executable node to the state; when report is
// non-nil, violations are reported as they are found. The walk skips
// nested function literals and defer registration sites (the CFG
// replays deferred calls in the exit block).
func scanNode(pass *analysis.Pass, n ast.Node, st state, report *analysis.Pass) {
	if _, ok := n.(*ast.DeferStmt); ok {
		return
	}
	ast.Inspect(n, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			return false
		case *ast.AssignStmt:
			// A plain-identifier assignment rebinds the variable: a
			// fresh value starts a fresh ownership window. The kill
			// happens before the walk descends, so the LHS identifier
			// itself is not treated as a use of the freed packet.
			for _, lhs := range x.Lhs {
				if obj := packetObj(pass.TypesInfo, lhs); obj != nil {
					delete(st, obj)
				}
			}
		case *ast.CallExpr:
			switch {
			case lintutil.IsMethodOn(pass.TypesInfo, x, packetPkg, "Pool", "Put"):
				if obj := packetArgObj(pass.TypesInfo, x, 0); obj != nil {
					cur := st[obj]
					if report != nil {
						for _, sc := range cur.scheds {
							report.Reportf(x.Pos(),
								"packet %s is still bound to a scheduled event (line %d) and is being released to the pool",
								obj.Name(), pass.Fset.Position(sc).Line)
						}
						if cur.freedAt != token.NoPos {
							report.Reportf(x.Pos(),
								"use of packet %s after it was released to the pool at line %d",
								obj.Name(), pass.Fset.Position(cur.freedAt).Line)
						}
					}
					st[obj] = pstate{freedAt: x.Pos()}
					return false // the argument identifier is the release, not a use
				}
			case lintutil.IsMethodOn(pass.TypesInfo, x, simPkg, "Engine", "ScheduleArg"),
				lintutil.IsMethodOn(pass.TypesInfo, x, simPkg, "Engine", "AtArg"):
				if obj := packetArgObj(pass.TypesInfo, x, len(x.Args)-1); obj != nil {
					cur := st[obj]
					cur.scheds = addPos(cur.scheds, x.Pos())
					st[obj] = cur
					// Keep walking: scheduling a freed packet is a use.
				}
			}
		case *ast.Ident:
			obj := lintutil.ObjectOf(pass.TypesInfo, x)
			if obj == nil || !isPacketVar(obj) {
				return true
			}
			if cur, ok := st[obj]; ok && cur.freedAt != token.NoPos && report != nil {
				report.Reportf(x.Pos(),
					"use of packet %s after it was released to the pool at line %d",
					obj.Name(), pass.Fset.Position(cur.freedAt).Line)
			}
		}
		return true
	})
}

// packetObj resolves an expression to a plain identifier naming a
// *packet.Packet variable, or nil.
func packetObj(info *types.Info, e ast.Expr) types.Object {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	obj := lintutil.ObjectOf(info, id)
	if obj == nil || !isPacketVar(obj) {
		return nil
	}
	return obj
}

// packetArgObj is packetObj for call.Args[i].
func packetArgObj(info *types.Info, call *ast.CallExpr, i int) types.Object {
	if i < 0 || i >= len(call.Args) {
		return nil
	}
	return packetObj(info, call.Args[i])
}

// isPacketVar reports whether the object is a variable of type
// *packet.Packet.
func isPacketVar(obj types.Object) bool {
	if _, ok := obj.(*types.Var); !ok {
		return false
	}
	if _, isPtr := obj.Type().(*types.Pointer); !isPtr {
		return false
	}
	return lintutil.NamedTypeIs(obj.Type(), packetPkg, "Packet")
}

// addPos inserts pos into the sorted, deduplicated position list.
func addPos(ps []token.Pos, pos token.Pos) []token.Pos {
	i := sort.Search(len(ps), func(i int) bool { return ps[i] >= pos })
	if i < len(ps) && ps[i] == pos {
		return ps
	}
	out := make([]token.Pos, 0, len(ps)+1)
	out = append(out, ps[:i]...)
	out = append(out, pos)
	return append(out, ps[i:]...)
}

// joinState merges two block-input states as a may-analysis: a
// variable is freed if freed on either path (earliest release position
// wins, deterministically), and pending schedules union.
func joinState(a, b state) state {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	out := a.clone()
	for k, bv := range b {
		av, ok := out[k]
		if !ok {
			out[k] = bv
			continue
		}
		if bv.freedAt != token.NoPos && (av.freedAt == token.NoPos || bv.freedAt < av.freedAt) {
			av.freedAt = bv.freedAt
		}
		for _, p := range bv.scheds {
			av.scheds = addPos(av.scheds, p)
		}
		out[k] = av
	}
	return out
}

func equalState(a, b state) bool {
	if len(a) != len(b) {
		return false
	}
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	for k, av := range a {
		bv, ok := b[k]
		if !ok || av.freedAt != bv.freedAt || len(av.scheds) != len(bv.scheds) {
			return false
		}
		for i := range av.scheds {
			if av.scheds[i] != bv.scheds[i] {
				return false
			}
		}
	}
	return true
}
