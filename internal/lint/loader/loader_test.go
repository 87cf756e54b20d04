package loader

import (
	"path/filepath"
	"testing"
)

// TestLoadModulePackages checks that the loader resolves module-internal
// imports from source (no export data, no network).
func TestLoadModulePackages(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", "..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	l := New()
	units, err := l.Load(root, "./internal/fanout", "./internal/packet")
	if err != nil {
		t.Fatal(err)
	}
	if len(units) != 2 {
		t.Fatalf("loaded %d packages, want 2", len(units))
	}
	for _, u := range units {
		if u.Pkg == nil || u.Info == nil || len(u.Files) == 0 {
			t.Errorf("%s: incomplete unit", u.PkgPath)
		}
		if u.Pkg.Name() == "" {
			t.Errorf("%s: unnamed types.Package", u.PkgPath)
		}
	}
	if got := units[0].PkgPath; got != "memnet/internal/fanout" {
		t.Errorf("first package = %s, want memnet/internal/fanout", got)
	}
}
