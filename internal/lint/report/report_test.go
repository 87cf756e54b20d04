package report_test

import (
	"go/token"
	"strings"
	"testing"

	"memnet/internal/lint/analysis"
	"memnet/internal/lint/report"
)

// sample is a deliberately shuffled multi-analyzer finding set: two
// analyzers on the same line, two files. Sorting must order it by
// (file, line, column, analyzer, message).
func sample() []analysis.Finding {
	mk := func(an, file string, line, col int, msg string) analysis.Finding {
		return analysis.Finding{
			Analyzer: an,
			Pos:      token.Position{Filename: file, Line: line, Column: col},
			Message:  msg,
		}
	}
	return []analysis.Finding{
		mk("poolcheck", "internal/link/link.go", 40, 2, "use of packet p after it was released to the pool at line 38"),
		mk("schedcheck", "internal/core/core.go", 12, 5, "possibly-negative delay (t1 - t2 involves a sim.Time subtraction); guard against going negative or annotate //lint:monotonic <reason>"),
		mk("detmap", "internal/link/link.go", 40, 2, "map iteration order is nondeterministic"),
		mk("statskey", "internal/link/link.go", 7, 1, "string-keyed counter map (map[string]uint64) constructed in simulation package; use struct counter fields or an integer-indexed slice, or annotate //lint:coldpath"),
		mk("wallclock", "internal/core/core.go", 12, 5, "wall-clock time.Now in simulation package; use the sim.Engine clock (Engine.Now / Schedule)"),
	}
}

const goldenText = `internal/core/core.go:12:5: schedcheck: possibly-negative delay (t1 - t2 involves a sim.Time subtraction); guard against going negative or annotate //lint:monotonic <reason>
internal/core/core.go:12:5: wallclock: wall-clock time.Now in simulation package; use the sim.Engine clock (Engine.Now / Schedule)
internal/link/link.go:7:1: statskey: string-keyed counter map (map[string]uint64) constructed in simulation package; use struct counter fields or an integer-indexed slice, or annotate //lint:coldpath
internal/link/link.go:40:2: detmap: map iteration order is nondeterministic
internal/link/link.go:40:2: poolcheck: use of packet p after it was released to the pool at line 38
`

func TestSortAndTextGolden(t *testing.T) {
	fs := sample()
	report.Sort(fs)
	var sb strings.Builder
	if err := report.WriteText(&sb, fs); err != nil {
		t.Fatal(err)
	}
	if sb.String() != goldenText {
		t.Errorf("text output mismatch:\n got:\n%s\nwant:\n%s", sb.String(), goldenText)
	}
}

func TestSortIsDeterministic(t *testing.T) {
	a, b := sample(), sample()
	// Reverse one copy: sorting must converge to the same order.
	for i, j := 0, len(b)-1; i < j; i, j = i+1, j-1 {
		b[i], b[j] = b[j], b[i]
	}
	report.Sort(a)
	report.Sort(b)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("order diverges at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestRelativize(t *testing.T) {
	fs := []analysis.Finding{
		{Analyzer: "detmap", Pos: token.Position{Filename: "/work/repo/internal/a.go", Line: 1, Column: 1}},
		{Analyzer: "detmap", Pos: token.Position{Filename: "/elsewhere/b.go", Line: 1, Column: 1}},
	}
	report.Relativize(fs, "/work/repo")
	if fs[0].Pos.Filename != "internal/a.go" {
		t.Errorf("in-dir path not relativized: %q", fs[0].Pos.Filename)
	}
	if fs[1].Pos.Filename != "/elsewhere/b.go" {
		t.Errorf("out-of-dir path must be untouched: %q", fs[1].Pos.Filename)
	}
}
