package core

import (
	"bytes"
	"reflect"
	"slices"
	"testing"

	"memnet/internal/fault"
	"memnet/internal/sim"
)

// leafRun resolves the base of the leaf walk: a scenario run, with
// DefaultTuning() and a fault config whose tunables are already at
// their defaults and with one entry in each schedule, so that every
// leaf is present.
func leafRun(t *testing.T) *Run {
	t.Helper()
	p := scenarioParams(t, twoPod())
	p.Tuning = DefaultTuning()
	p.Fault = &fault.Config{
		LinkBER:     1e-6,
		KillLinks:   []fault.LinkKill{{Edge: 1, At: sim.Microsecond}},
		KillCubes:   []fault.CubeKill{{Node: 2, At: sim.Microsecond}},
		LaneFails:   []fault.LaneFail{{Edge: 1, At: sim.Microsecond}},
		RepairLinks: []fault.LinkRepair{{Edge: 1, At: 2 * sim.Microsecond}},
		RepairCubes: []fault.CubeRepair{{Node: 2, At: 2 * sim.Microsecond}},
		LaneFlaps:   []fault.LaneFlap{{Edge: 1, Down: sim.Microsecond, Up: 2 * sim.Microsecond}},
		Watchdog:    true,
	}
	r, err := Resolve(p)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// leafPaths appends the path of every exported leaf under t to out. A
// path step is a field index, or -1 to step through a pointer or into
// a slice's first element.
func leafPaths(t reflect.Type, prefix []int, out *[][]int) {
	switch t.Kind() {
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if t.Field(i).IsExported() {
				leafPaths(t.Field(i).Type, append(slices.Clone(prefix), i), out)
			}
		}
	case reflect.Pointer, reflect.Slice:
		leafPaths(t.Elem(), append(slices.Clone(prefix), -1), out)
	default:
		*out = append(*out, prefix)
	}
}

// leafAt follows a leafPaths path from v.
func leafAt(v reflect.Value, path []int) (reflect.Value, string) {
	name := v.Type().Name()
	for _, i := range path {
		switch {
		case i >= 0:
			name += "." + v.Type().Field(i).Name
			v = v.Field(i)
		case v.Kind() == reflect.Pointer:
			v = v.Elem()
		default:
			name += "[0]"
			v = v.Index(0)
		}
	}
	return v, name
}

// TestSpecLeaves walks every exported leaf of every Params field the
// view holds (system, workload, tuning and fault config, their nested
// structs and schedule entries, and the scalar fields) and checks that
// changing it alone in a resolved run changes its Spec, and so its
// cache address. A field added to any of these structs is covered
// without editing this test. The change is made in the run as it
// stands, not resolved again, since a change can make a run that no
// longer resolves (Sys.Ports 9 does not divide the capacity) and its
// leaf must still be in the view.
func TestSpecLeaves(t *testing.T) {
	spec := func(r *Run) []byte {
		t.Helper()
		b, err := r.Spec()
		if err != nil {
			t.Fatalf("spec: %v", err)
		}
		return b
	}
	base := spec(leafRun(t))
	pt := reflect.TypeOf(Params{})
	vt := reflect.TypeOf(view{})
	walked := 0
	for i := 0; i < vt.NumField(); i++ {
		f, ok := pt.FieldByName(vt.Field(i).Name)
		if !ok {
			continue // Graph: covered by campaign's TestFingerprintSensitivity
		}
		var paths [][]int
		leafPaths(f.Type, []int{f.Index[0]}, &paths)
		for _, path := range paths {
			r := leafRun(t)
			leaf, name := leafAt(reflect.ValueOf(&r.p).Elem(), path)
			switch leaf.Kind() {
			case reflect.Bool:
				leaf.SetBool(!leaf.Bool())
			case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
				leaf.SetInt(leaf.Int() + 1)
			case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
				leaf.SetUint(leaf.Uint() + 1)
			case reflect.Float32, reflect.Float64:
				leaf.SetFloat(leaf.Float()*2 + 0.125)
			case reflect.String:
				leaf.SetString(leaf.String() + "x")
			default:
				t.Errorf("%s: no mutation for a %s leaf", name, leaf.Kind())
				continue
			}
			walked++
			if bytes.Equal(spec(r), base) {
				t.Errorf("changing %s does not change the spec", name)
			}
		}
	}
	if walked < 80 {
		t.Errorf("walked %d leaves; the view's structs hold more", walked)
	}
}

// TestSpecCoverage partitions Params' own fields: each is in the view
// under its own name and type, enters it as the graph, or is left out
// because the result cache does not serve its runs (they exist for
// their side artifacts). A Params field added, removed or renamed fails
// here until it is placed.
func TestSpecCoverage(t *testing.T) {
	roles := map[string]string{
		"Sys": "view", "Arb": "view", "Workload": "view",
		"Transactions": "view", "Seed": "view", "Fault": "view", "Tuning": "view",
		"Topo": "graph", "Scenario": "graph",
		"Replay": "uncacheable", "Record": "uncacheable",
		"Obs": "uncacheable", "Spans": "uncacheable",
	}
	pt := reflect.TypeOf(Params{})
	if pt.NumField() != len(roles) {
		t.Errorf("Params has %d fields, the pin places %d", pt.NumField(), len(roles))
	}
	for i := 0; i < pt.NumField(); i++ {
		name := pt.Field(i).Name
		role, ok := roles[name]
		if !ok {
			t.Errorf("Params.%s is not placed: add it to the view (run.go) or say here why it is left out", name)
			continue
		}
		vf, inView := reflect.TypeOf(view{}).FieldByName(name)
		if inView != (role == "view") {
			t.Errorf("Params.%s has role %q but in-view=%v", name, role, inView)
		}
		if inView && vf.Type != pt.Field(i).Type {
			t.Errorf("view.%s is %s, Params.%s is %s", name, vf.Type, name, pt.Field(i).Type)
		}
	}
}
