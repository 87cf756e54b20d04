// Package analysis is a minimal, dependency-free re-implementation of
// the golang.org/x/tools/go/analysis surface that memnet's linters use.
//
// The real x/tools module is not vendored (memnet is deliberately
// zero-dependency), so this package provides the same shape — an
// Analyzer with a Run function over a Pass carrying parsed files and
// full type information — letting the mnlint analyzers be written in
// the standard go/analysis style. If the repo ever vendors x/tools,
// the analyzers port over by changing one import line.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name is a short lower-case identifier (used in diagnostics and to
	// select analyzers on the mnlint command line).
	Name string
	// Doc is a one-paragraph description of what the analyzer reports.
	Doc string
	// Run applies the analyzer to one package.
	Run func(*Pass) (any, error)
}

// Pass carries one package's syntax and types to an Analyzer.Run.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report delivers one diagnostic. The driver sets it.
	Report func(Diagnostic)
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Finding is a position-resolved diagnostic as produced by RunAnalyzers.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// String formats the finding in the conventional file:line:col style.
func (f Finding) String() string {
	return fmt.Sprintf("%s: %s: %s", f.Pos, f.Analyzer, f.Message)
}

// Unit is one loaded package ready for analysis (produced by the
// loader; decoupled here so analyzers and tests need not import it).
type Unit struct {
	PkgPath string
	Fset    *token.FileSet
	Files   []*ast.File
	Pkg     *types.Package
	Info    *types.Info
}

// RunAnalyzers applies each analyzer to the unit and returns the
// findings in analyzer order; the driver sorts the whole run's findings
// once (see package report).
func RunAnalyzers(u *Unit, analyzers []*Analyzer) ([]Finding, error) {
	var out []Finding
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      u.Fset,
			Files:     u.Files,
			Pkg:       u.Pkg,
			TypesInfo: u.Info,
		}
		name := a.Name
		pass.Report = func(d Diagnostic) {
			out = append(out, Finding{
				Analyzer: name,
				Pos:      u.Fset.Position(d.Pos),
				Message:  d.Message,
			})
		}
		if _, err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", a.Name, u.PkgPath, err)
		}
	}
	return out, nil
}

// Inspect walks every file in the pass, calling fn for each node; fn
// returning false prunes the subtree (ast.Inspect semantics).
func Inspect(pass *Pass, fn func(ast.Node) bool) {
	for _, f := range pass.Files {
		ast.Inspect(f, fn)
	}
}
