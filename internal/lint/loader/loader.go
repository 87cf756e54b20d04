// Package loader turns Go package patterns into analysis.Units: parsed
// files plus full go/types information, using only the standard
// library. Package discovery shells out to `go list -json`; imports are
// type-checked from source via go/importer's "source" mode, so the
// loader works offline and without pre-compiled export data.
//
// Type-checking is memoized: units come back in dependency order
// (imports before importers) and every unit the loader checks is
// registered with the import resolver, so a package in the load set is
// type-checked exactly once no matter how many dependents import it
// (the source importer would otherwise re-check it from scratch), and
// no matter how many analyzers run over it.
package loader

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"

	"memnet/internal/lint/analysis"
)

// Loader holds the shared FileSet, import resolver, and the memo of
// packages already type-checked. All packages loaded through one
// Loader share all three, so cross-package type identity and source
// positions stay consistent and nothing is checked twice.
type Loader struct {
	Fset *token.FileSet
	imp  types.Importer
	// pkgs memoizes completed type-checks by import path; the caching
	// importer consults it before it falls back to the from-source
	// resolver.
	pkgs map[string]*types.Package
}

// New returns an empty loader.
func New() *Loader {
	fset := token.NewFileSet()
	l := &Loader{
		Fset: fset,
		pkgs: make(map[string]*types.Package),
	}
	l.imp = &cachingImporter{
		loader:   l,
		fallback: importer.ForCompiler(fset, "source", nil),
	}
	return l
}

// cachingImporter resolves imports out of the loader's memo first and
// only then from source. Combined with dependency-ordered Load, every
// package in the load set is type-checked exactly once; the source
// importer alone would re-check each package per dependent.
type cachingImporter struct {
	loader   *Loader
	fallback types.Importer
}

func (ci *cachingImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := ci.loader.pkgs[path]; ok {
		return pkg, nil
	}
	return ci.fallback.Import(path)
}

func (ci *cachingImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if pkg, ok := ci.loader.pkgs[path]; ok {
		return pkg, nil
	}
	if from, ok := ci.fallback.(types.ImporterFrom); ok {
		return from.ImportFrom(path, dir, mode)
	}
	return ci.fallback.Import(path)
}

// listedPackage is the subset of `go list -json` output the loader needs.
type listedPackage struct {
	ImportPath string
	Dir        string
	Name       string
	GoFiles    []string
	Imports    []string
	Error      *struct{ Err string }
}

// Load expands the patterns (e.g. "./...") relative to dir and returns
// one Unit per matched package, in dependency order: every package
// precedes the packages that import it (ties broken by import path).
// Dependency order is what makes the type-check memo effective — by
// the time a dependent is checked, its in-set imports are already in
// the cache.
func (l *Loader) Load(dir string, patterns ...string) ([]*analysis.Unit, error) {
	if len(patterns) == 0 {
		patterns = []string{"."}
	}
	args := append([]string{"list", "-e", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	listed := make(map[string]*listedPackage)
	var order []string
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		p := new(listedPackage)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding output: %v", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("go list: %s: %s", p.ImportPath, p.Error.Err)
		}
		if len(p.GoFiles) == 0 {
			continue
		}
		listed[p.ImportPath] = p
		order = append(order, p.ImportPath)
	}
	var units []*analysis.Unit
	for _, path := range dependencyOrder(listed, order) {
		p := listed[path]
		files := make([]string, len(p.GoFiles))
		for i, f := range p.GoFiles {
			files[i] = filepath.Join(p.Dir, f)
		}
		u, err := l.loadFiles(p.ImportPath, files)
		if err != nil {
			return nil, err
		}
		units = append(units, u)
	}
	return units, nil
}

// dependencyOrder topologically sorts the listed packages so imports
// precede importers, deterministically (DFS from lexically-sorted
// roots over lexically-sorted in-set imports). Import cycles cannot
// occur in compilable Go; if one sneaks past `go list -e`, the visited
// guard still terminates with an arbitrary-but-stable order.
func dependencyOrder(listed map[string]*listedPackage, order []string) []string {
	sort.Strings(order)
	visited := make(map[string]bool, len(listed))
	out := make([]string, 0, len(listed))
	var visit func(path string)
	visit = func(path string) {
		if visited[path] {
			return
		}
		visited[path] = true
		p := listed[path]
		imps := append([]string(nil), p.Imports...)
		sort.Strings(imps)
		for _, imp := range imps {
			if _, inSet := listed[imp]; inSet {
				visit(imp)
			}
		}
		out = append(out, path)
	}
	for _, path := range order {
		visit(path)
	}
	return out
}

// LoadDir loads the single package rooted at dir under the given import
// path, taking every non-test .go file in the directory. It is the
// entry point used by the analysistest harness, where testdata packages
// are not visible to `go list`.
func (l *Loader) LoadDir(pkgPath, dir string) (*analysis.Unit, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		files = append(files, filepath.Join(dir, name))
	}
	sort.Strings(files)
	if len(files) == 0 {
		return nil, fmt.Errorf("loader: no Go files in %s", dir)
	}
	return l.loadFiles(pkgPath, files)
}

// loadFiles parses and type-checks the given files as one package. Type
// errors are fatal: the linters depend on complete type information.
func (l *Loader) loadFiles(pkgPath string, filenames []string) (*analysis.Unit, error) {
	var files []*ast.File
	for _, fn := range filenames {
		f, err := parser.ParseFile(l.Fset, fn, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	var typeErrs []error
	conf := types.Config{
		Importer: l.imp,
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	pkg, _ := conf.Check(pkgPath, l.Fset, files, info)
	if len(typeErrs) > 0 {
		var sb strings.Builder
		for i, e := range typeErrs {
			if i == 8 {
				fmt.Fprintf(&sb, "\n\t... and %d more", len(typeErrs)-i)
				break
			}
			fmt.Fprintf(&sb, "\n\t%v", e)
		}
		return nil, fmt.Errorf("loader: type errors in %s:%s", pkgPath, sb.String())
	}
	// Register with the caching importer: dependents loaded after this
	// point resolve the import from the memo instead of re-checking the
	// package from source.
	l.pkgs[pkgPath] = pkg
	return &analysis.Unit{PkgPath: pkgPath, Fset: l.Fset, Files: files, Pkg: pkg, Info: info}, nil
}
