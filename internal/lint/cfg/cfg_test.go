package cfg

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// parseBody parses `body` as the body of a function and returns its CFG.
func parseBody(t *testing.T, body string) *Graph {
	t.Helper()
	src := "package p\nfunc f() {\n" + body + "\n}\n"
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "t.go", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, src)
	}
	return New(f.Decls[0].(*ast.FuncDecl).Body)
}

// markerBlock finds the block and intra-block index of the call to the
// named function (markers are calls like A(), B(), ...).
func markerBlock(g *Graph, name string) (*Block, int) {
	for _, b := range g.Blocks {
		for i, n := range b.Nodes {
			found := false
			ast.Inspect(n, func(c ast.Node) bool {
				if call, ok := c.(*ast.CallExpr); ok {
					if id, ok := call.Fun.(*ast.Ident); ok && id.Name == name {
						found = true
						return false
					}
				}
				return true
			})
			if found {
				return b, i
			}
		}
	}
	return nil, -1
}

// path reports whether execution can flow from marker `from` to marker
// `to` (strictly after it, following CFG edges; a marker reaches
// itself only through a cycle).
func path(t *testing.T, g *Graph, from, to string) bool {
	t.Helper()
	fb, fi := markerBlock(g, from)
	tb, ti := markerBlock(g, to)
	if fb == nil || tb == nil {
		t.Fatalf("marker not found: %s=%v %s=%v", from, fb, to, tb)
	}
	if fb == tb && ti > fi {
		return true
	}
	for _, s := range fb.Succs {
		if reachableFrom(s)[tb] {
			return true
		}
	}
	return false
}

// reachesExit reports whether the marker can reach the Exit block.
func reachesExit(t *testing.T, g *Graph, from string) bool {
	t.Helper()
	fb, _ := markerBlock(g, from)
	if fb == nil {
		t.Fatalf("marker %s not found", from)
	}
	if fb == g.Exit {
		return true
	}
	for _, s := range fb.Succs {
		if reachableFrom(s)[g.Exit] {
			return true
		}
	}
	return false
}

func TestShapes(t *testing.T) {
	type q struct {
		from, to string
		want     bool
	}
	cases := []struct {
		name string
		body string
		qs   []q
	}{
		{
			name: "straight line",
			body: "A(); B()",
			qs:   []q{{"A", "B", true}, {"B", "A", false}},
		},
		{
			name: "if else",
			body: "if c() { A() } else { B() }; C()",
			qs: []q{
				{"A", "B", false}, {"B", "A", false},
				{"A", "C", true}, {"B", "C", true},
				{"C", "A", false}, {"c", "B", true},
			},
		},
		{
			name: "if without else falls through",
			body: "if c() { A() }; C()",
			qs:   []q{{"c", "C", true}, {"A", "C", true}, {"C", "A", false}},
		},
		{
			name: "nested loops with labeled break and continue",
			body: `
outer:
	for c() {
		for d() {
			if e() {
				break outer
			}
			if f2() {
				continue outer
			}
			A()
		}
		B()
	}
	C()`,
			qs: []q{
				{"A", "A", true}, // inner back edge
				{"A", "B", true}, {"A", "C", true},
				{"e", "C", true},  // break outer skips B
				{"f2", "A", true}, // continue outer re-enters via outer head
				{"f2", "B", true}, // (on a later iteration's inner exit)
				{"B", "A", true},  // next outer iteration
			},
		},
		{
			name: "plain break and continue",
			body: "for c() { if d() { break }; if e() { continue }; A() }; B()",
			qs: []q{
				{"d", "B", true}, {"e", "A", true}, // continue loops, a later iteration runs A
				{"A", "A", true}, {"A", "B", true},
			},
		},
		{
			name: "continue inside switch targets the loop",
			body: "for c() { switch d() { case 1: continue; case 2: A() }; B() }; C()",
			qs: []q{
				{"A", "B", true},
				{"d", "d", true}, // continue reaches the loop head, then d again
				{"A", "C", true},
			},
		},
		{
			name: "switch with fallthrough",
			body: "switch t2() { case 1: A(); fallthrough; case 2: B(); case 3: C() }; D()",
			qs: []q{
				{"A", "B", true},  // fallthrough chains the bodies
				{"B", "C", false}, // no fallthrough from case 2
				{"A", "D", true}, {"B", "D", true}, {"C", "D", true},
				{"t2", "D", true}, // no default: tag may match nothing
			},
		},
		{
			name: "type switch",
			body: "switch v := x.(type) { case int: A(); _ = v; case string: B() }; C()",
			qs:   []q{{"A", "C", true}, {"B", "C", true}, {"A", "B", false}},
		},
		{
			name: "select",
			body: "select { case <-ch(): A(); case <-ch2(): B() }; C()",
			qs:   []q{{"A", "C", true}, {"B", "C", true}, {"A", "B", false}},
		},
		{
			name: "range loops",
			body: "for range xs() { A() }; B()",
			qs:   []q{{"A", "A", true}, {"A", "B", true}, {"xs", "B", true}},
		},
		{
			name: "goto backward forms a loop",
			body: "A()\nagain:\n\tB()\n\tif c() { goto again }\n\tC()",
			qs:   []q{{"B", "B", true}, {"A", "B", true}, {"B", "C", true}},
		},
		{
			name: "goto forward skips",
			body: "A()\nif c() { goto out }\nB()\nout:\n\tC()",
			qs:   []q{{"A", "C", true}, {"c", "C", true}, {"B", "C", true}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := parseBody(t, tc.body)
			for _, query := range tc.qs {
				if got := path(t, g, query.from, query.to); got != query.want {
					t.Errorf("%s: path(%s -> %s) = %v, want %v\n%s",
						tc.name, query.from, query.to, got, query.want, dump(g))
				}
			}
		})
	}
}

func TestPanicTerminates(t *testing.T) {
	g := parseBody(t, `if c() { A(); panic("boom") }; B()`)
	if path(t, g, "A", "B") {
		t.Errorf("panic path must not reach B\n%s", dump(g))
	}
	if reachesExit(t, g, "A") {
		t.Errorf("panic path must not reach Exit\n%s", dump(g))
	}
	if !reachesExit(t, g, "B") {
		t.Errorf("normal path must reach Exit\n%s", dump(g))
	}
}

func TestReturnWiresToExit(t *testing.T) {
	g := parseBody(t, "if c() { A(); return }; B()")
	if !reachesExit(t, g, "A") {
		t.Errorf("return path must reach Exit\n%s", dump(g))
	}
	if path(t, g, "A", "B") {
		t.Errorf("return path must not fall through to B\n%s", dump(g))
	}
}

func TestUnreachableAfterReturn(t *testing.T) {
	g := parseBody(t, "return\nA()")
	ab, _ := markerBlock(g, "A")
	if ab == nil {
		t.Fatal("A not placed in any block")
	}
	if len(ab.Preds) != 0 {
		t.Errorf("statement after return must be unreachable, got %d preds", len(ab.Preds))
	}
}

// TestDeferOrdering checks that deferred calls are replayed LIFO into
// the Exit block and recorded in registration order in Defers.
func TestDeferOrdering(t *testing.T) {
	g := parseBody(t, "defer d1()\nA()\ndefer d2()\nB()")
	if len(g.Defers) != 2 {
		t.Fatalf("got %d defers, want 2", len(g.Defers))
	}
	name := func(c *ast.CallExpr) string { return c.Fun.(*ast.Ident).Name }
	if name(g.Defers[0]) != "d1" || name(g.Defers[1]) != "d2" {
		t.Errorf("Defers order = %s,%s; want d1,d2", name(g.Defers[0]), name(g.Defers[1]))
	}
	// Exit replays LIFO: ...d2 then d1 (d1 runs last, so it is last).
	n := len(g.Exit.Nodes)
	if n < 2 {
		t.Fatalf("exit has %d nodes, want >= 2", n)
	}
	last := g.Exit.Nodes[n-1].(*ast.CallExpr)
	secondLast := g.Exit.Nodes[n-2].(*ast.CallExpr)
	if name(secondLast) != "d2" || name(last) != "d1" {
		t.Errorf("exit replay = %s,%s; want d2,d1", name(secondLast), name(last))
	}
	// A deferred call is reachable from every marker (it sits in Exit).
	for _, m := range []string{"A", "B"} {
		if !reachesExit(t, g, m) {
			t.Errorf("%s must reach Exit", m)
		}
	}
}

// TestSolverMustDischarge runs a forward must-analysis ("has a
// discharge call happened on every path?") over branch shapes,
// exercised directly on the solver.
func TestSolverMustDischarge(t *testing.T) {
	cases := []struct {
		name string
		body string
		want bool // discharged on all paths at Exit
	}{
		{"both branches", "if c() { D() } else { D() }; A()", true},
		{"one branch only", "if c() { D() }; A()", false},
		{"straight", "D(); A()", true},
		{"loop may skip", "for c() { D() }; A()", false},
		{"panic path exempt", `if c() { panic("x") }; D()`, true},
		{"after return on one path", "if c() { D(); return }; D()", true},
		{"deferred discharge", "defer D()\nA()", true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := parseBody(t, tc.body)
			// Lattice: 0 = bottom (unvisited), 1 = not yet discharged,
			// 2 = discharged. Join = min over visited inputs.
			sol := Solve(g, Problem[int]{
				Boundary: 1,
				Init:     0,
				Transfer: func(b *Block, in int) int {
					if in == 0 {
						return 0
					}
					for _, n := range b.Nodes {
						if hasCall(n, "D") {
							return 2
						}
					}
					return in
				},
				Join: func(a, b int) int {
					if a == 0 {
						return b
					}
					if b == 0 {
						return a
					}
					if a < b {
						return a
					}
					return b
				},
				Equal: func(a, b int) bool { return a == b },
			})
			got := sol.Out[g.Exit.Index] == 2
			if got != tc.want {
				t.Errorf("discharged-at-exit = %v, want %v\n%s", got, tc.want, dump(g))
			}
		})
	}
}

func hasCall(n ast.Node, name string) bool {
	found := false
	ast.Inspect(n, func(c ast.Node) bool {
		if call, ok := c.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == name {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// dump renders the graph structure for test failure messages.
func dump(g *Graph) string {
	var sb strings.Builder
	for _, b := range g.Blocks {
		succs := make([]string, len(b.Succs))
		for i, s := range b.Succs {
			succs[i] = fmt.Sprint(s.Index)
		}
		fmt.Fprintf(&sb, "b%d(%s) [%d nodes] -> %s\n",
			b.Index, b.kind, len(b.Nodes), strings.Join(succs, ","))
	}
	return sb.String()
}

// reachableFrom returns the set of blocks reachable from start
// (inclusive) following Succs.
func reachableFrom(start *Block) map[*Block]bool {
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
