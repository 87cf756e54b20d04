package topology

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"memnet/internal/scenario"
)

// FuzzScenarioDecode feeds arbitrary documents through the scenario
// pipeline, scenario.Decode then BuildScenario, seeded with the
// cookbook examples. Each stage must return an error or a result, never
// panic; a decoded spec must round-trip: its canonical bytes decode
// again and re-canonicalize to the same bytes.
func FuzzScenarioDecode(f *testing.F) {
	seeds, err := filepath.Glob(filepath.Join("..", "..", "examples", "scenario", "*.json"))
	if err != nil {
		f.Fatal(err)
	}
	for _, path := range seeds {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 8192 {
			return
		}
		s, err := scenario.Decode(data)
		if err != nil {
			return
		}
		canon := s.Canonical()
		again, err := scenario.Decode(canon)
		if err != nil {
			t.Fatalf("canonical form does not decode: %v\n%s", err, canon)
		}
		if re := again.Canonical(); !bytes.Equal(re, canon) {
			t.Fatalf("canonical form is not a fixpoint:\n%s\n%s", canon, re)
		}
		g, err := BuildScenario(s.Clone())
		if err == nil && g == nil {
			t.Fatal("BuildScenario returned neither a graph nor an error")
		}
	})
}
