package campaign

import (
	"math"
	"os"
	"reflect"
	"slices"
	"testing"

	"memnet/internal/config"
	"memnet/internal/core"
	"memnet/internal/fault"
	"memnet/internal/scenario"
	"memnet/internal/sim"
	"memnet/internal/span"
	"memnet/internal/topology"
	"memnet/internal/workload"
)

// testParams returns a representative publication-grid configuration.
func testParams() core.Params {
	wl := workload.Suite()[0]
	return core.Params{
		Sys:          config.Default(),
		Topo:         topology.Tree,
		Workload:     wl,
		Transactions: 1000,
		Seed:         1,
	}
}

// testScenario returns a small scenario spec for fingerprint checks.
func testScenario() *scenario.Spec {
	return &scenario.Spec{
		Schema: scenario.Schema,
		Name:   "fp-test",
		Nodes:  []scenario.Node{{Name: "c0"}, {Name: "c1"}},
		Links: []scenario.Link{
			{A: "host", B: "c0"},
			{A: "c0", B: "c1"},
		},
	}
}

// mustFingerprint is FingerprintParams for runs whose view encodes.
func mustFingerprint(t *testing.T, p core.Params) Fingerprint {
	t.Helper()
	fp, err := FingerprintParams(p)
	if err != nil {
		t.Fatalf("fingerprint: %v", err)
	}
	return fp
}

// TestFingerprintStable checks the fingerprint is a pure function of
// the parameters.
func TestFingerprintStable(t *testing.T) {
	a := mustFingerprint(t, testParams())
	b := mustFingerprint(t, testParams())
	if a != b {
		t.Fatalf("identical params fingerprint differently: %s vs %s", a, b)
	}
}

// TestFingerprintSensitivity checks that every class of configuration
// change moves the content address.
func TestFingerprintSensitivity(t *testing.T) {
	base := mustFingerprint(t, testParams())
	mutations := map[string]func(*core.Params){
		"topology":     func(p *core.Params) { p.Topo = topology.Ring },
		"arbitration":  func(p *core.Params) { p.Arb++ },
		"transactions": func(p *core.Params) { p.Transactions++ },
		"seed":         func(p *core.Params) { p.Seed++ },
		"workload":     func(p *core.Params) { p.Workload.MeanGap += sim.Nanosecond },
		"ports":        func(p *core.Params) { p.Sys.Ports = 4 },
		"dram-frac":    func(p *core.Params) { p.Sys.DRAMFraction = 0.5 },
		"placement":    func(p *core.Params) { p.Sys.Placement = config.NVMFirst },
		"capacity":     func(p *core.Params) { p.Sys.TotalCapacity /= 2 },
		"banks":        func(p *core.Params) { p.Sys.BanksPerCube /= 2 },
		"serdes":       func(p *core.Params) { p.Sys.SerDesLatency += sim.Nanosecond },
		"nvm-timing":   func(p *core.Params) { p.Sys.NVMTiming.TWR += sim.Nanosecond },
		"energy":       func(p *core.Params) { p.Sys.Energy.NVMWritePJPerBit++ },
		"tuning":       func(p *core.Params) { p.Tuning.WavefrontSize++ },
		"fault-ber":    func(p *core.Params) { p.Fault = &fault.Config{LinkBER: 1e-6} },
		"fault-kill": func(p *core.Params) {
			p.Fault = &fault.Config{KillCubes: []fault.CubeKill{{Node: 3, At: sim.Microsecond}}}
		},
		"fault-repair": func(p *core.Params) {
			p.Fault = &fault.Config{
				KillCubes:   []fault.CubeKill{{Node: 3, At: sim.Microsecond}},
				RepairCubes: []fault.CubeRepair{{Node: 3, At: 2 * sim.Microsecond}},
			}
		},
		"fault-flap": func(p *core.Params) {
			p.Fault = &fault.Config{LaneFlaps: []fault.LaneFlap{{Edge: 1, Down: sim.Microsecond, Up: 2 * sim.Microsecond}}}
		},
		"fault-retrain": func(p *core.Params) {
			p.Fault = &fault.Config{LinkBER: 1e-6, RetrainWindow: sim.Microsecond}
		},
		"scenario-nil-vs-set": func(p *core.Params) { p.Scenario = testScenario() },
		"scenario-name": func(p *core.Params) {
			s := testScenario()
			s.Name = "other"
			p.Scenario = s
		},
		"scenario-link-override": func(p *core.Params) {
			s := testScenario()
			depth := 4
			s.Links[1].BufferPackets = &depth
			p.Scenario = s
		},
		"scenario-link-deleted": func(p *core.Params) {
			s := testScenario()
			s.Links = s.Links[:1]
			p.Scenario = s
		},
		"scenario-router-override": func(p *core.Params) {
			s := testScenario()
			s.Routers = map[string]scenario.Router{"c0": {Arb: "distance"}}
			p.Scenario = s
		},
	}
	got := map[Fingerprint]string{base: "base"}
	for name, mut := range mutations {
		p := testParams()
		mut(&p)
		fp := mustFingerprint(t, p)
		if fp == base {
			t.Errorf("mutation %q does not change the fingerprint", name)
		}
		if prev, dup := got[fp]; dup {
			t.Errorf("mutations %q and %q collide (%s)", name, prev, fp)
		}
		got[fp] = name
	}

	// For every kind, a built-in run and the run of its exported
	// scenario (the spec core.GraphSpec returns, which
	// memnet.ExportScenario hands out) are the same run, so they share
	// one address; changing Topo moves it.
	byKind := map[Fingerprint]topology.Kind{}
	for _, kind := range topology.AllKinds {
		p := testParams()
		p.Topo = kind
		builtin := mustFingerprint(t, p)
		s, err := core.GraphSpec(&p)
		if err != nil {
			t.Fatal(err)
		}
		p.Scenario = s
		if fp := mustFingerprint(t, p); fp != builtin {
			t.Errorf("%v: exported-scenario run fingerprints %s, built-in run %s", kind, fp, builtin)
		}
		if prev, dup := byKind[builtin]; dup {
			t.Errorf("topologies %v and %v share fingerprint %s", kind, prev, builtin)
		}
		byKind[builtin] = kind
	}
}

// TestFingerprintScenarioReload checks the cache-hit property behind
// "cached sweeps extend for free": two independent loads of the same
// scenario document — and a reformatted, default-elided variant of it —
// fingerprint identically, so re-running a scenario campaign hits.
func TestFingerprintScenarioReload(t *testing.T) {
	sparse := []byte(`{"schema":"memnet/scenario/v1","name":"fp-test",` +
		`"nodes":[{"name":"c0"},{"name":"c1"}],` +
		`"links":[{"a":"host","b":"c0"},{"a":"c0","b":"c1"}]}`)
	verbose := []byte(`{
		"name": "fp-test",
		"schema": "memnet/scenario/v1",
		"links": [
			{"b": "c0", "a": "host", "express": false},
			{"a": "c0", "b": "c1"}
		],
		"nodes": [
			{"name": "c0", "kind": "cube", "tech": "dram", "pos": 0},
			{"name": "c1", "pos": 1}
		]
	}`)
	fp := func(doc []byte) Fingerprint {
		s, err := scenario.Decode(doc)
		if err != nil {
			t.Fatal(err)
		}
		p := testParams()
		p.Topo = topology.Scenario
		p.Scenario = s
		return mustFingerprint(t, p)
	}
	a, b, c := fp(sparse), fp(sparse), fp(verbose)
	if a != b {
		t.Errorf("re-loaded scenario fingerprints differ: %s vs %s", a, b)
	}
	if a != c {
		t.Errorf("reformatted scenario fingerprints differ: %s vs %s", a, c)
	}
	// A scenario run stays cacheable.
	s, err := scenario.Decode(sparse)
	if err != nil {
		t.Fatal(err)
	}
	p := testParams()
	p.Scenario = s
	if !Cacheable(p) {
		t.Error("scenario run must be cacheable")
	}
}

// TestCacheable checks the side-artifact exclusions.
func TestCacheable(t *testing.T) {
	p := testParams()
	if !Cacheable(p) {
		t.Fatal("plain run should be cacheable")
	}
	rp := p
	rp.Replay = []workload.Tx{{}}
	rec := p
	rec.Record = true
	sp := p
	sp.Spans = &span.Config{SampleStride: 4}
	for name, q := range map[string]core.Params{"replay": rp, "record": rec, "spans": sp} {
		if Cacheable(q) {
			t.Errorf("%s run must not be cacheable", name)
		}
	}
}

// TestFingerprintAliases checks that Params which resolve to the same
// run (core.Params.Resolved) share one address and simulate to equal
// Results: a zero Tuning and DefaultTuning(), KeepSamples (no Results
// field depends on it), a nil and a disabled fault config, and an
// enabled fault config with and without its defaults spelled out.
func TestFingerprintAliases(t *testing.T) {
	faulty := func(p *core.Params) { p.Fault = &fault.Config{LinkBER: 1e-6} }
	cases := []struct {
		name   string
		before func(*core.Params) // applied to both runs
		alias  func(*core.Params) // applied to the second run only
	}{
		{"tuning-default", nil, func(p *core.Params) { p.Tuning = core.DefaultTuning() }},
		{"keepsamples", nil, func(p *core.Params) { p.KeepSamples = true }},
		{"fault-nil-vs-zero", nil, func(p *core.Params) { p.Fault = &fault.Config{} }},
		{"fault-disabled", nil, func(p *core.Params) {
			p.Fault = &fault.Config{Seed: 7, MaxRetries: 3, RetrainWindow: sim.Microsecond}
		}},
		{"fault-defaults", faulty, func(p *core.Params) {
			f := p.Fault.WithDefaults()
			p.Fault = &f
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := testParams()
			if tc.before != nil {
				tc.before(&a)
			}
			b := a
			tc.alias(&b)
			if fa, fb := mustFingerprint(t, a), mustFingerprint(t, b); fa != fb {
				t.Errorf("addresses differ: %s vs %s", fa, fb)
			}
			ra, err := core.Simulate(a)
			if err != nil {
				t.Fatal(err)
			}
			rb, err := core.Simulate(b)
			if err != nil {
				t.Fatal(err)
			}
			if ra != rb {
				t.Errorf("one address, different Results:\n  %+v\n  %+v", ra, rb)
			}
		})
	}
}

// TestFingerprintUnencodable checks that a run whose view cannot be
// built (a graph that cannot be generated) or encoded (a NaN) has no
// address, and that CachedSim simulates it without touching the store.
func TestFingerprintUnencodable(t *testing.T) {
	cases := map[string]func(*core.Params){
		"graph-error": func(p *core.Params) { p.Sys.DRAMFraction = 0.37 },
		"nan":         func(p *core.Params) { p.Workload.HotFraction = math.NaN() },
	}
	for name, mut := range cases {
		t.Run(name, func(t *testing.T) {
			p := testParams()
			mut(&p)
			if fp, err := FingerprintParams(p); err == nil {
				t.Fatalf("got address %s, want an error", fp)
			}
			store, err := Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			var c Counter
			calls := 0
			next := func(core.Params) (core.Results, error) {
				calls++
				return testResults(), nil
			}
			if _, err := CachedSim(store, next, &c)(p); err != nil {
				t.Fatal(err)
			}
			entries, err := os.ReadDir(store.Dir())
			if err != nil {
				t.Fatal(err)
			}
			if calls != 1 || c.Misses() != 1 || len(entries) != 0 {
				t.Errorf("backend calls %d, misses %d, store entries %d; want 1, 1, 0",
					calls, c.Misses(), len(entries))
			}
		})
	}
}

// leafParams is the base of the leaf walk: a scenario run, so that
// changing a system field cannot make the graph fail to generate, with
// a fault config whose tunables are already at their defaults and with
// one entry in each schedule, so that every leaf is present and a
// changed leaf cannot resolve back to the base value.
func leafParams() core.Params {
	p := testParams()
	p.Scenario = testScenario()
	p.Tuning = core.DefaultTuning()
	f := fault.Config{
		LinkBER:     1e-6,
		KillLinks:   []fault.LinkKill{{Edge: 1, At: sim.Microsecond}},
		KillCubes:   []fault.CubeKill{{Node: 2, At: sim.Microsecond}},
		LaneFails:   []fault.LaneFail{{Edge: 1, At: sim.Microsecond}},
		RepairLinks: []fault.LinkRepair{{Edge: 1, At: 2 * sim.Microsecond}},
		RepairCubes: []fault.CubeRepair{{Node: 2, At: 2 * sim.Microsecond}},
		LaneFlaps:   []fault.LaneFlap{{Edge: 1, Down: sim.Microsecond, Up: 2 * sim.Microsecond}},
		Watchdog:    true,
	}.WithDefaults()
	p.Fault = &f
	return p
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

// TestFingerprintLeaves walks every exported leaf of every Params field
// the view holds (system, workload, tuning and fault config, their
// nested structs and schedule entries, and the scalar fields) and
// checks that changing it alone moves the address. A field added to
// any of these structs is covered without editing this test.
func TestFingerprintLeaves(t *testing.T) {
	base := mustFingerprint(t, leafParams())
	pt := reflect.TypeOf(core.Params{})
	vt := reflect.TypeOf(view{})
	walked := 0
	for i := 0; i < vt.NumField(); i++ {
		f, ok := pt.FieldByName(vt.Field(i).Name)
		if !ok {
			continue // Graph: covered by TestFingerprintSensitivity
		}
		var paths [][]int
		leafPaths(f.Type, []int{f.Index[0]}, &paths)
		for _, path := range paths {
			p := leafParams()
			leaf, name := leafAt(reflect.ValueOf(&p).Elem(), path)
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
			if mustFingerprint(t, p) == base {
				t.Errorf("changing %s does not move the address", name)
			}
		}
	}
	if walked < 80 {
		t.Errorf("walked %d leaves; the view's structs hold more", walked)
	}
}

// TestFingerprintCoverage partitions core.Params' own fields: each is
// in the view under its own name, enters it as the graph, or is left
// out because no Results field depends on it or its runs are not
// Cacheable. A Params field added, removed or renamed fails here until
// it is placed.
func TestFingerprintCoverage(t *testing.T) {
	roles := map[string]string{
		"Sys": "view", "Arb": "view", "Workload": "view",
		"Transactions": "view", "Seed": "view", "Fault": "view", "Tuning": "view",
		"Topo": "graph", "Scenario": "graph",
		"KeepSamples": "no-result", "Replay": "uncacheable", "Record": "uncacheable",
		"Obs": "uncacheable", "Spans": "uncacheable",
	}
	pt := reflect.TypeOf(core.Params{})
	if pt.NumField() != len(roles) {
		t.Errorf("core.Params has %d fields, the pin places %d", pt.NumField(), len(roles))
	}
	for i := 0; i < pt.NumField(); i++ {
		name := pt.Field(i).Name
		role, ok := roles[name]
		if !ok {
			t.Errorf("core.Params.%s is not placed: add it to the view (fingerprint.go) or say here why it is left out", name)
			continue
		}
		vf, inView := reflect.TypeOf(view{}).FieldByName(name)
		if inView != (role == "view") {
			t.Errorf("core.Params.%s has role %q but in-view=%v", name, role, inView)
		}
		if inView && vf.Type != pt.Field(i).Type {
			t.Errorf("view.%s is %s, core.Params.%s is %s", name, vf.Type, name, pt.Field(i).Type)
		}
	}
}
