package analysis

import (
	"fmt"
	"go/types"
)

// Facts is mnlint's cross-package fact store: a map from
// (package path, object path, fact name) to an analyzer-defined value.
// It is the channel through which an analyzer's per-package summaries
// (e.g. creditflow's "this function discharges a credit on every
// path") become visible when a *dependent* package is analyzed — the
// loader returns units in dependency order, so by the time
// internal/core is on the pass, the facts computed over internal/link
// and internal/sim are already present.
//
// Facts are keyed by path strings rather than types.Object identity on
// purpose: the vet driver and the analysistest harness type-check
// packages in separate universes, where object pointers do not
// compare, but "memnet/internal/link.(Direction).ReturnCredit" does.
type Facts struct {
	m map[factKey]any
}

type factKey struct {
	pkg    string
	object string // "" for package-level facts
	name   string
}

// NewFacts returns an empty store.
func NewFacts() *Facts {
	return &Facts{m: map[factKey]any{}}
}

// ObjectPath renders the stable intra-package path of a function,
// method, or other package-scope object: "F" for a package function,
// "(T).M" for a method (pointer receivers normalized away).
func ObjectPath(obj types.Object) string {
	if fn, ok := obj.(*types.Func); ok {
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			t := sig.Recv().Type()
			if ptr, ok := t.(*types.Pointer); ok {
				t = ptr.Elem()
			}
			if named, ok := t.(*types.Named); ok {
				return fmt.Sprintf("(%s).%s", named.Obj().Name(), fn.Name())
			}
		}
	}
	return obj.Name()
}

// ExportObjectFact records a fact about a package-scope object.
func (f *Facts) ExportObjectFact(obj types.Object, name string, value any) {
	if obj == nil || obj.Pkg() == nil {
		return
	}
	f.m[factKey{obj.Pkg().Path(), ObjectPath(obj), name}] = value
}

// ObjectFact returns the named fact about obj, if recorded.
func (f *Facts) ObjectFact(obj types.Object, name string) (any, bool) {
	if obj == nil || obj.Pkg() == nil {
		return nil, false
	}
	v, ok := f.m[factKey{obj.Pkg().Path(), ObjectPath(obj), name}]
	return v, ok
}

// ExportPackageFact records a package-level fact (object path empty).
// Multiple exports under the same key overwrite; use distinct names or
// aggregate values for accumulation.
func (f *Facts) ExportPackageFact(pkgPath, name string, value any) {
	f.m[factKey{pkgPath, "", name}] = value
}

// PackageFact returns the named package-level fact of pkgPath.
func (f *Facts) PackageFact(pkgPath, name string) (any, bool) {
	v, ok := f.m[factKey{pkgPath, "", name}]
	return v, ok
}
