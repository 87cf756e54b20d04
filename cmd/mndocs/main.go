// Command mndocs keeps the repository's documentation generated, not
// hand-edited. Marker blocks in the docs,
//
//	<!-- mndocs:begin table:fig4 -->
//	...
//	<!-- mndocs:end table:fig4 -->
//
// are rendered from machine-readable sources: "table:<id>" blocks from
// the campaign manifest (results/experiments.json, written by mnexp),
// "provenance" blocks from the manifest's options, "flags:<cmd>"
// blocks from the flag definitions parsed out of cmd/<cmd>/main.go, and
// the "scenario-format" block from the embedded scenario JSON schema
// (internal/scenario/scenario.schema.json) — the SCENARIOS.md field
// reference can therefore never disagree with what the loader accepts.
//
// -check regenerates every block in memory and exits nonzero if the
// committed file differs (the CI docs-drift gate); -write rewrites the
// files in place. A document that names a table the manifest does not
// contain, or a begin marker without its matching end, is an error.
//
// Examples:
//
//	mndocs -check                    # CI: fail on drift
//	mndocs -write                    # re-render EXPERIMENTS.md, README.md, SCENARIOS.md
//	mndocs -write -experiments results/experiments.json DOCS.md
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"memnet/internal/experiments"
)

func main() {
	var (
		expPath = flag.String("experiments", "results/experiments.json",
			"campaign manifest (mnexp -out) that table: blocks render from")
		repo  = flag.String("repo", ".", "repository root (for flags: blocks and default doc paths)")
		check = flag.Bool("check", false, "verify docs match regenerated output; exit 1 on drift")
		write = flag.Bool("write", false, "rewrite docs in place")
	)
	flag.Parse()

	if *check == *write {
		fmt.Fprintln(os.Stderr, "mndocs: exactly one of -check or -write is required")
		os.Exit(2)
	}
	docs := flag.Args()
	if len(docs) == 0 {
		docs = []string{
			filepath.Join(*repo, "EXPERIMENTS.md"),
			filepath.Join(*repo, "README.md"),
			filepath.Join(*repo, "SCENARIOS.md"),
		}
	}

	r := &renderer{expPath: *expPath, repo: *repo}
	drift := false
	for _, doc := range docs {
		orig, err := os.ReadFile(doc)
		if err != nil {
			fatal(err)
		}
		regen, err := r.renderDoc(string(orig))
		if err != nil {
			fatal(fmt.Errorf("%s: %w", doc, err))
		}
		if regen == string(orig) {
			continue
		}
		if *write {
			if err := os.WriteFile(doc, []byte(regen), 0o644); err != nil {
				fatal(err)
			}
			fmt.Println("updated", doc)
			continue
		}
		drift = true
		fmt.Fprintf(os.Stderr, "mndocs: %s is stale:\n", doc)
		reportFirstDiff(string(orig), regen)
	}
	if drift {
		fmt.Fprintln(os.Stderr, "mndocs: docs drifted from their sources; run: go run ./cmd/mndocs -write")
		os.Exit(1)
	}
}

// renderer resolves mndocs sections; the manifest is loaded lazily so
// docs with only flags: blocks need no experiments.json.
type renderer struct {
	expPath  string
	repo     string
	manifest *experiments.RunManifest
	tables   map[string]*experiments.Table
}

const (
	beginPrefix = "<!-- mndocs:begin "
	endPrefix   = "<!-- mndocs:end "
	markerClose = " -->"
)

// renderDoc regenerates every marker block of one document.
func (r *renderer) renderDoc(src string) (string, error) {
	lines := strings.Split(src, "\n")
	var out []string
	for i := 0; i < len(lines); i++ {
		line := lines[i]
		name, ok := markerName(line, beginPrefix)
		if !ok {
			if _, stray := markerName(line, endPrefix); stray {
				return "", fmt.Errorf("line %d: mndocs:end without a begin", i+1)
			}
			out = append(out, line)
			continue
		}
		end := -1
		for j := i + 1; j < len(lines); j++ {
			if n, ok := markerName(lines[j], endPrefix); ok {
				if n != name {
					return "", fmt.Errorf("line %d: mndocs:end %q closes begin %q", j+1, n, name)
				}
				end = j
				break
			}
			if _, nested := markerName(lines[j], beginPrefix); nested {
				return "", fmt.Errorf("line %d: nested mndocs:begin inside %q", j+1, name)
			}
		}
		if end < 0 {
			return "", fmt.Errorf("line %d: mndocs:begin %q is never closed", i+1, name)
		}
		body, err := r.renderSection(name)
		if err != nil {
			return "", fmt.Errorf("section %q: %w", name, err)
		}
		out = append(out, line)
		out = append(out, strings.Split(strings.TrimSuffix(body, "\n"), "\n")...)
		out = append(out, lines[end])
		i = end
	}
	return strings.Join(out, "\n"), nil
}

// markerName extracts the section name from a marker line.
func markerName(line, prefix string) (string, bool) {
	t := strings.TrimSpace(line)
	if !strings.HasPrefix(t, prefix) || !strings.HasSuffix(t, markerClose) {
		return "", false
	}
	return strings.TrimSuffix(strings.TrimPrefix(t, prefix), markerClose), true
}

// renderSection dispatches one block name to its generator.
func (r *renderer) renderSection(name string) (string, error) {
	switch {
	case strings.HasPrefix(name, "table:"):
		return r.renderTable(strings.TrimPrefix(name, "table:"))
	case name == "provenance":
		return r.renderProvenance()
	case strings.HasPrefix(name, "flags:"):
		return r.renderFlags(strings.TrimPrefix(name, "flags:"))
	case name == "scenario-format":
		return renderScenarioFormat()
	default:
		return "", fmt.Errorf("unknown section kind")
	}
}

// load reads the campaign manifest once.
func (r *renderer) load() error {
	if r.manifest != nil {
		return nil
	}
	raw, err := os.ReadFile(r.expPath)
	if err != nil {
		return fmt.Errorf("campaign manifest (run mnexp -out first): %w", err)
	}
	m, err := experiments.DecodeRunManifest(raw)
	if err != nil {
		return err
	}
	r.manifest = m
	r.tables = make(map[string]*experiments.Table, len(m.Tables))
	for _, t := range m.Tables {
		r.tables[t.ID] = t
	}
	return nil
}

// renderTable renders one measured table as GitHub markdown.
func (r *renderer) renderTable(id string) (string, error) {
	if err := r.load(); err != nil {
		return "", err
	}
	t, ok := r.tables[id]
	if !ok {
		return "", fmt.Errorf("table %q not in %s", id, r.expPath)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Measured — %s", mdEscape(t.Title))
	if t.Unit != "" {
		fmt.Fprintf(&b, " (values in %s)", mdEscape(t.Unit))
	}
	b.WriteString(":\n\n| configuration |")
	for _, c := range t.Columns {
		fmt.Fprintf(&b, " %s |", mdEscape(c))
	}
	b.WriteString("\n|---|")
	for range t.Columns {
		b.WriteString("---:|")
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		fmt.Fprintf(&b, "| %s |", mdEscape(row.Label))
		for _, v := range row.Values {
			fmt.Fprintf(&b, " %.2f |", v)
		}
		b.WriteByte('\n')
	}
	return b.String(), nil
}

// renderProvenance describes the manifest every table: block came from.
func (r *renderer) renderProvenance() (string, error) {
	if err := r.load(); err != nil {
		return "", err
	}
	o := r.manifest.Options
	return fmt.Sprintf(
		"Measured tables below are rendered by `cmd/mndocs` from\n"+
			"`%s` (schema `%s`): %d tables at\n"+
			"%d transactions per configuration/workload, seed %d. Regenerate the\n"+
			"manifest with `go run ./cmd/mnexp -out results -cache results/cache`\n"+
			"and re-render this file with `go run ./cmd/mndocs -write`; CI fails\n"+
			"if the committed docs drift from either source.\n",
		r.expPath, r.manifest.Schema, len(r.manifest.Tables),
		o.Transactions, o.Seed), nil
}

// renderFlags renders the flag table of cmd/<name> parsed from its
// main.go, so the README can never advertise flags that do not exist.
func (r *renderer) renderFlags(name string) (string, error) {
	path := filepath.Join(r.repo, "cmd", name, "main.go")
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, path, nil, 0)
	if err != nil {
		return "", err
	}
	// A usage string is a literal or a string constant of the file.
	consts := map[string]string{}
	for _, d := range file.Decls {
		gd, ok := d.(*ast.GenDecl)
		if !ok || gd.Tok != token.CONST {
			continue
		}
		for _, spec := range gd.Specs {
			vs := spec.(*ast.ValueSpec)
			for i, id := range vs.Names {
				if i < len(vs.Values) {
					if v, ok := stringLit(vs.Values[i]); ok {
						consts[id.Name] = v
					}
				}
			}
		}
	}
	type flagDef struct{ name, def, usage string }
	var defs []flagDef
	var unresolved []string
	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) < 3 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkg, ok := sel.X.(*ast.Ident)
		if !ok || pkg.Name != "flag" {
			return true
		}
		switch sel.Sel.Name {
		case "String", "Bool", "Int", "Int64", "Uint", "Uint64", "Float64", "Duration":
		default:
			return true
		}
		fname, ok := stringLit(call.Args[0])
		if !ok {
			return true
		}
		usage, ok := stringLit(call.Args[len(call.Args)-1])
		if id, isIdent := call.Args[len(call.Args)-1].(*ast.Ident); isIdent {
			usage, ok = consts[id.Name]
		}
		if !ok {
			unresolved = append(unresolved, "-"+fname)
			return true
		}
		defs = append(defs, flagDef{fname, exprText(fset, call.Args[1]), usage})
		return true
	})
	if len(defs) == 0 {
		return "", fmt.Errorf("no flag definitions found in %s", path)
	}
	if len(unresolved) > 0 {
		return "", fmt.Errorf("%s: usage of %s is neither a string literal nor a string constant", path, strings.Join(unresolved, ", "))
	}
	var b strings.Builder
	fmt.Fprintf(&b, "`%s` flags:\n\n| flag | default | description |\n|---|---|---|\n", name)
	for _, d := range defs {
		fmt.Fprintf(&b, "| `-%s` | `%s` | %s |\n", d.name, d.def, mdEscape(d.usage))
	}
	return b.String(), nil
}

// stringLit resolves an expression to its string value: a literal or a
// concatenation of literals.
func stringLit(e ast.Expr) (string, bool) {
	switch v := e.(type) {
	case *ast.BasicLit:
		if v.Kind != token.STRING {
			return "", false
		}
		s, err := strconv.Unquote(v.Value)
		return s, err == nil
	case *ast.BinaryExpr:
		if v.Op != token.ADD {
			return "", false
		}
		l, lok := stringLit(v.X)
		r, rok := stringLit(v.Y)
		return l + r, lok && rok
	}
	return "", false
}

// exprText renders a default-value expression as source text, unquoting
// plain string literals for readability.
func exprText(fset *token.FileSet, e ast.Expr) string {
	if s, ok := stringLit(e); ok {
		if s == "" {
			return `""`
		}
		return s
	}
	var b strings.Builder
	if err := printer.Fprint(&b, fset, e); err != nil {
		return "?"
	}
	return b.String()
}

// mdEscape keeps cell text from breaking the markdown table grid.
func mdEscape(s string) string {
	s = strings.ReplaceAll(s, "|", `\|`)
	return strings.ReplaceAll(s, "\n", " ")
}

// reportFirstDiff prints the first line where the committed doc and the
// regenerated doc disagree.
func reportFirstDiff(got, want string) {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	n := len(g)
	if len(w) < n {
		n = len(w)
	}
	for i := 0; i < n; i++ {
		if g[i] != w[i] {
			fmt.Fprintf(os.Stderr, "  line %d:\n    have: %s\n    want: %s\n", i+1, g[i], w[i])
			return
		}
	}
	fmt.Fprintf(os.Stderr, "  line counts differ: have %d, want %d\n", len(g), len(w))
}

// fatal prints the error and exits.
func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mndocs:", err)
	os.Exit(1)
}
