// Package lintutil holds the small pieces of policy and plumbing shared
// by the mnlint analyzers: which packages count as simulation code,
// //lint: suppression directives, and type-resolution helpers.
package lintutil

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// simPackages are the internal packages whose code executes inside (or
// feeds state into) the deterministic simulation loop. The determinism
// analyzers (detmap, wallclock, statskey) apply only here; cmd/ front
// ends, the profiler, experiment drivers, and the linter itself may use
// wall-clock time and unordered iteration freely.
var simPackages = []string{
	"sim", "core", "link", "router", "vault", "host", "fault",
	"arb", "topology", "mem", "stats", "obs", "span", "scenario",
	"workload",
}

// SimPackage reports whether the import path names simulation code:
// memnet/internal/<p> (or a subpackage) for one of the restricted
// package names. Matching is by path segment, so an analysistest
// fixture declared under .../internal/sim is restricted too.
func SimPackage(path string) bool {
	segs := strings.Split(path, "/")
	for i, s := range segs {
		if s != "internal" || i+1 >= len(segs) {
			continue
		}
		next := segs[i+1]
		for _, p := range simPackages {
			if next == p {
				return true
			}
		}
	}
	return false
}

// directives collects, per file line, the //lint:... directive comments
// so an analyzer can honor suppressions cheaply.
type Directives struct {
	fset  *token.FileSet
	lines map[string]map[int]string // filename -> line -> directive text
}

// NewDirectives scans the files' comments for //lint: directives.
func NewDirectives(fset *token.FileSet, files []*ast.File) *Directives {
	d := &Directives{fset: fset, lines: make(map[string]map[int]string)}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, "lint:") {
					continue
				}
				pos := fset.Position(c.Pos())
				m := d.lines[pos.Filename]
				if m == nil {
					m = make(map[int]string)
					d.lines[pos.Filename] = m
				}
				m[pos.Line] = text
			}
		}
	}
	return d
}

// Allows reports whether a //lint:<name>... directive is attached to
// the node at pos: on the same line, or alone on the line above.
func (d *Directives) Allows(pos token.Pos, name string) bool {
	p := d.fset.Position(pos)
	m := d.lines[p.Filename]
	if m == nil {
		return false
	}
	for _, line := range [2]int{p.Line, p.Line - 1} {
		if text, ok := m[line]; ok && strings.HasPrefix(text, "lint:"+name) {
			return true
		}
	}
	return false
}

// CalleeFunc resolves a call expression to the *types.Func it invokes
// (package function or method), or nil for indirect/builtin calls.
func CalleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// IsMethodOn reports whether the call invokes a method named name whose
// receiver's named type is pkgPath.typeName (pointer or value).
func IsMethodOn(info *types.Info, call *ast.CallExpr, pkgPath, typeName, name string) bool {
	fn := CalleeFunc(info, call)
	if fn == nil || fn.Name() != name {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return NamedTypeIs(sig.Recv().Type(), pkgPath, typeName)
}

// NamedTypeIs reports whether t (or its pointee) is the named type
// pkgPath.typeName.
func NamedTypeIs(t types.Type, pkgPath, typeName string) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Name() != typeName || obj.Pkg() == nil {
		return false
	}
	return obj.Pkg().Path() == pkgPath
}

// IsMapType reports whether the expression's type is (an alias of) a map.
func IsMapType(info *types.Info, e ast.Expr) bool {
	t := info.TypeOf(e)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// ObjectOf returns the object an identifier denotes (use or def).
func ObjectOf(info *types.Info, id *ast.Ident) types.Object {
	if obj := info.Uses[id]; obj != nil {
		return obj
	}
	return info.Defs[id]
}

// EnclosingFuncs returns every function body in the file, top-level or
// literal, paired with its declaration node for position reporting.
type FuncBody struct {
	Node ast.Node       // *ast.FuncDecl or *ast.FuncLit
	Body *ast.BlockStmt // never nil
}

// Functions yields all function bodies in the file (declared functions,
// methods, and function literals).
func Functions(f *ast.File) []FuncBody {
	var out []FuncBody
	ast.Inspect(f, func(n ast.Node) bool {
		switch fn := n.(type) {
		case *ast.FuncDecl:
			if fn.Body != nil {
				out = append(out, FuncBody{Node: fn, Body: fn.Body})
			}
		case *ast.FuncLit:
			out = append(out, FuncBody{Node: fn, Body: fn.Body})
		}
		return true
	})
	return out
}
