// Package doccheck implements the mnlint analyzer that keeps the
// public surface of the documentation-bearing packages documented.
//
// The campaign/result-cache layer (internal/campaign), the experiment
// harnesses (internal/experiments), the telemetry layer (internal/obs)
// and the scenario format (internal/scenario) are the packages other
// code programs against and the packages DESIGN.md points readers into;
// an exported identifier without a doc comment there is an API change
// that shipped without its contract. The analyzer requires a leading
// doc comment on every exported top-level function, method, type,
// constant, and variable, and on every exported field or interface
// method of an exported top-level type. A shared comment on a
// declaration group (`// Common durations.` above a const block)
// covers the group; trailing line comments do not count (godoc does
// not attach them to fields the way a leading comment is). Deliberate
// omissions can be annotated //lint:nodoc.
package doccheck

import (
	"go/ast"
	"strings"

	"memnet/internal/lint/analysis"
	"memnet/internal/lint/lintutil"
)

// Analyzer is the doccheck analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "doccheck",
	Doc: "flag undocumented exported identifiers in the documented-API " +
		"packages (campaign, experiments, obs, scenario)",
	Run: run,
}

// docPackages are the internal packages whose exported surface must be
// fully documented (path segment under internal/, as in
// lintutil.SimPackage).
var docPackages = []string{"campaign", "experiments", "obs", "scenario"}

// docPackage reports whether the import path names a package held to
// full godoc coverage.
func docPackage(path string) bool {
	segs := strings.Split(path, "/")
	for i, s := range segs {
		if s != "internal" || i+1 >= len(segs) {
			continue
		}
		for _, p := range docPackages {
			if segs[i+1] == p {
				return true
			}
		}
	}
	return false
}

func run(pass *analysis.Pass) (any, error) {
	if !docPackage(pass.Pkg.Path()) {
		return nil, nil
	}
	dirs := lintutil.NewDirectives(pass.Fset, pass.Files)
	report := func(n ast.Node, kind, name string) {
		if dirs.Allows(n.Pos(), "nodoc") {
			return
		}
		pass.Reportf(n.Pos(),
			"exported %s %s has no doc comment (document it or annotate //lint:nodoc)",
			kind, name)
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				checkFunc(report, d)
			case *ast.GenDecl:
				checkGen(report, d)
			}
		}
	}
	return nil, nil
}

// checkFunc requires a doc comment on exported functions and on
// exported methods of exported receiver types.
func checkFunc(report func(ast.Node, string, string), d *ast.FuncDecl) {
	if !d.Name.IsExported() || d.Doc != nil {
		return
	}
	kind, name := "function", d.Name.Name
	if d.Recv != nil && len(d.Recv.List) == 1 {
		recv := receiverName(d.Recv.List[0].Type)
		if recv == "" || !ast.IsExported(recv) {
			return // method on an unexported type: not public surface
		}
		kind, name = "method", recv+"."+d.Name.Name
	}
	report(d, kind, name)
}

// receiverName resolves a method receiver type expression to its base
// type name ("T" for T, *T, T[...]).
func receiverName(e ast.Expr) string {
	switch t := e.(type) {
	case *ast.Ident:
		return t.Name
	case *ast.StarExpr:
		return receiverName(t.X)
	case *ast.IndexExpr:
		return receiverName(t.X)
	case *ast.IndexListExpr:
		return receiverName(t.X)
	}
	return ""
}

// checkGen requires a doc comment on exported type, const, and var
// specs; a comment on the enclosing declaration group covers every
// spec in it.
func checkGen(report func(ast.Node, string, string), d *ast.GenDecl) {
	groupDoc := d.Doc != nil
	for _, spec := range d.Specs {
		switch s := spec.(type) {
		case *ast.TypeSpec:
			if s.Name.IsExported() && !groupDoc && s.Doc == nil {
				report(s, "type", s.Name.Name)
			}
			if s.Name.IsExported() {
				checkTypeMembers(report, s)
			}
		case *ast.ValueSpec:
			if groupDoc || s.Doc != nil {
				continue
			}
			for _, name := range s.Names {
				if name.IsExported() {
					report(name, kindOf(d), name.Name)
				}
			}
		}
	}
}

// kindOf labels a value spec's declaration keyword.
func kindOf(d *ast.GenDecl) string {
	if d.Tok.String() == "const" {
		return "constant"
	}
	return "variable"
}

// checkTypeMembers requires leading doc comments on exported struct
// fields and interface methods of an exported type.
func checkTypeMembers(report func(ast.Node, string, string), s *ast.TypeSpec) {
	var fields *ast.FieldList
	kind := "field"
	switch t := s.Type.(type) {
	case *ast.StructType:
		fields = t.Fields
	case *ast.InterfaceType:
		fields = t.Methods
		kind = "interface method"
	default:
		return
	}
	for _, f := range fields.List {
		if f.Doc != nil {
			continue
		}
		for _, name := range f.Names {
			if name.IsExported() {
				report(name, kind, s.Name.Name+"."+name.Name)
			}
		}
	}
}
