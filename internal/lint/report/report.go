// Package report renders mnlint findings deterministically: sorted by
// (file, line, column, analyzer, message), with paths relative to the
// working directory, as file:line:col: analyzer: message lines. Two
// runs over the same tree print byte-identical output regardless of
// package load order or analyzer scheduling.
package report

import (
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"strings"

	"memnet/internal/lint/analysis"
)

// Sort orders findings canonically: by file, then line, then column,
// then analyzer name, then message.
func Sort(fs []analysis.Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// Relativize rewrites absolute finding paths to be relative to dir
// (slash-separated), leaving paths outside dir untouched. Relative
// paths keep CI logs portable.
func Relativize(fs []analysis.Finding, dir string) {
	for i := range fs {
		if r, err := filepath.Rel(dir, fs[i].Pos.Filename); err == nil && !strings.HasPrefix(r, "..") {
			fs[i].Pos.Filename = filepath.ToSlash(r)
		}
	}
}

// WriteText emits one file:line:col: analyzer: message line per finding.
func WriteText(w io.Writer, fs []analysis.Finding) error {
	for _, f := range fs {
		if _, err := fmt.Fprintln(w, f.String()); err != nil {
			return err
		}
	}
	return nil
}
