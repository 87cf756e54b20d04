// Package analysistest runs an analyzer over fixture packages and
// checks its diagnostics against // want comments, mirroring the
// golang.org/x/tools/go/analysis/analysistest workflow:
//
//	func TestFoo(t *testing.T) {
//		analysistest.Run(t, analysistest.TestData(), foo.Analyzer, "a")
//	}
//
// Fixture packages live under <testdata>/src/<path>/ (GOPATH-style, so
// a fixture can pose as a restricted package such as
// memnet/internal/sim). Every line that should trigger a diagnostic
// carries a comment of the form
//
//	code // want `regexp`
//
// with the regexp matched against the diagnostic message. Diagnostics
// without a matching want, and wants without a matching diagnostic,
// fail the test.
package analysistest

import (
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"memnet/internal/lint/analysis"
	"memnet/internal/lint/loader"
)

// TestData returns the absolute path of the calling test's testdata
// directory.
func TestData() string {
	dir, err := filepath.Abs("testdata")
	if err != nil {
		panic(err)
	}
	return dir
}

// Run loads each fixture package under testdata/src and applies the
// analyzer, comparing diagnostics against // want expectations. The
// fixtures share one loader in the order given, so a fixture listed
// later may import one listed earlier.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, pkgPaths ...string) {
	t.Helper()
	l := loader.New()
	for _, path := range pkgPaths {
		dir := filepath.Join(testdata, "src", filepath.FromSlash(path))
		unit, err := l.LoadDir(path, dir)
		if err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		findings, err := analysis.RunAnalyzers(unit, []*analysis.Analyzer{a})
		if err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		checkWants(t, unit.Fset, dir, findings)
	}
}

// want is one expectation parsed from a fixture comment.
type want struct {
	file    string
	line    int
	re      *regexp.Regexp
	raw     string
	matched bool
}

// wantRx matches both `// want "..."` and "// want `...`" forms,
// capturing the quoted pattern (multiple patterns may follow).
var wantRx = regexp.MustCompile("(?://|/\\*)\\s*want\\s+(.*)")

// checkWants scans the fixture sources for want comments and reconciles
// them with the findings.
func checkWants(t *testing.T, fset *token.FileSet, dir string, findings []analysis.Finding) {
	t.Helper()
	wants, err := parseWants(dir)
	if err != nil {
		t.Error(err)
		return
	}
	for _, f := range findings {
		matched := false
		for _, w := range wants {
			if w.matched || w.file != filepath.Base(f.Pos.Filename) || w.line != f.Pos.Line {
				continue
			}
			if w.re.MatchString(f.Message) {
				w.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %v", f)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no diagnostic matching %q", filepath.Join(dir, w.file), w.line, w.raw)
		}
	}
}

// parseWants extracts want expectations from every .go file in dir.
func parseWants(dir string) ([]*want, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var wants []*want
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		for i, line := range strings.Split(string(data), "\n") {
			m := wantRx.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			pats, err := splitPatterns(m[1])
			if err != nil {
				return nil, fmt.Errorf("%s:%d: %v", filepath.Join(dir, e.Name()), i+1, err)
			}
			for _, p := range pats {
				re, err := regexp.Compile(p)
				if err != nil {
					return nil, fmt.Errorf("%s:%d: bad want pattern %q: %v", filepath.Join(dir, e.Name()), i+1, p, err)
				}
				wants = append(wants, &want{file: e.Name(), line: i + 1, re: re, raw: p})
			}
		}
	}
	return wants, nil
}

// splitPatterns parses a sequence of quoted or backquoted regexps.
func splitPatterns(s string) ([]string, error) {
	var out []string
	s = strings.TrimSpace(s)
	for s != "" {
		switch s[0] {
		case '`':
			end := strings.IndexByte(s[1:], '`')
			if end < 0 {
				return nil, fmt.Errorf("unterminated backquoted pattern")
			}
			out = append(out, s[1:1+end])
			s = strings.TrimSpace(s[end+2:])
		case '"':
			// Find the closing quote, honoring escapes.
			end := -1
			for i := 1; i < len(s); i++ {
				if s[i] == '\\' {
					i++
					continue
				}
				if s[i] == '"' {
					end = i
					break
				}
			}
			if end < 0 {
				return nil, fmt.Errorf("unterminated quoted pattern")
			}
			p, err := strconv.Unquote(s[:end+1])
			if err != nil {
				return nil, err
			}
			out = append(out, p)
			s = strings.TrimSpace(s[end+1:])
		default:
			// Trailing prose (e.g. the closing of a block comment).
			if strings.HasPrefix(s, "*/") {
				return out, nil
			}
			return nil, fmt.Errorf("want: expected quoted pattern, got %q", s)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("want: no patterns")
	}
	return out, nil
}
