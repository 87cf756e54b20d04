package campaign

import (
	"math"
	"os"
	"reflect"
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

// ringScenario is testScenario with a third cube closing a ring.
func ringScenario() *scenario.Spec {
	s := testScenario()
	s.Nodes = append(s.Nodes, scenario.Node{Name: "c2"})
	s.Links = append(s.Links, scenario.Link{A: "c1", B: "c2"}, scenario.Link{A: "c2", B: "c0"})
	return s
}

// mustRun resolves p (core.Resolve).
func mustRun(t *testing.T, p core.Params) *core.Run {
	t.Helper()
	r, err := core.Resolve(p)
	if err != nil {
		t.Fatalf("resolve: %v", err)
	}
	return r
}

// mustFingerprint is the address CachedSim gives p: FingerprintOf the
// resolved run, for runs that resolve and whose spec encodes.
func mustFingerprint(t *testing.T, p core.Params) Fingerprint {
	t.Helper()
	fp, err := FingerprintOf(mustRun(t, p))
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
		"tuning": func(p *core.Params) {
			p.Tuning = core.DefaultTuning()
			p.Tuning.WavefrontSize++
		},
		"fault-ber": func(p *core.Params) { p.Fault = &fault.Config{LinkBER: 1e-6} },
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
		// A ring of three cubes, and the same ring with a link
		// deleted: deleting testScenario's c0-c1 link would strand c1,
		// and a run that does not resolve has no address.
		"scenario-ring": func(p *core.Params) { p.Scenario = ringScenario() },
		"scenario-link-deleted": func(p *core.Params) {
			s := ringScenario()
			s.Links = s.Links[:len(s.Links)-1]
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
	// scenario (the spec core.Run.Network returns, which
	// memnet.ExportScenario hands out) are the same run, so they share
	// one address; changing Topo moves it.
	byKind := map[Fingerprint]topology.Kind{}
	for _, kind := range topology.AllKinds {
		p := testParams()
		p.Topo = kind
		builtin := mustFingerprint(t, p)
		p.Scenario, _ = mustRun(t, p).Network()
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
	if !cacheable(&p) {
		t.Error("scenario run must be cacheable")
	}
}

// TestCacheable checks the side-artifact exclusions.
func TestCacheable(t *testing.T) {
	p := testParams()
	if !cacheable(&p) {
		t.Fatal("plain run should be cacheable")
	}
	rp := p
	rp.Replay = []workload.Tx{{}}
	rec := p
	rec.Record = true
	sp := p
	sp.Spans = &span.Config{SampleStride: 4}
	for name, q := range map[string]core.Params{"replay": rp, "record": rec, "spans": sp} {
		if cacheable(&q) {
			t.Errorf("%s run must not be cacheable", name)
		}
	}
}

// TestFingerprintAliases checks that Params which resolve to the same
// run (core.Resolve) share one address and simulate to equal
// Results: a zero Tuning and DefaultTuning(), a nil and a disabled
// fault config, and an enabled fault config with and without its
// defaults spelled out.
func TestFingerprintAliases(t *testing.T) {
	faulty := func(p *core.Params) { p.Fault = &fault.Config{LinkBER: 1e-6} }
	cases := []struct {
		name   string
		before func(*core.Params) // applied to both runs
		alias  func(*core.Params) // applied to the second run only
	}{
		{"tuning-default", nil, func(p *core.Params) { p.Tuning = core.DefaultTuning() }},
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

// TestFingerprintUnencodable checks that a run that does not resolve
// (a graph that cannot be generated, a NaN fraction) has no address
// and CachedSim returns Resolve's error without calling its backend,
// and that a resolved run whose spec cannot be encoded (a NaN energy,
// which Resolve does not check) is simulated without touching the
// store. Either way the store stays empty and one miss is counted.
func TestFingerprintUnencodable(t *testing.T) {
	cases := map[string]struct {
		mut   func(*core.Params)
		calls int
	}{
		"graph-error": {func(p *core.Params) { p.Sys.DRAMFraction = 0.37 }, 0},
		"nan":         {func(p *core.Params) { p.Workload.HotFraction = math.NaN() }, 0},
		"nan-energy":  {func(p *core.Params) { p.Sys.Energy.NVMWritePJPerBit = math.NaN() }, 1},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			p := testParams()
			tc.mut(&p)
			r, rerr := core.Resolve(p)
			if rerr == nil {
				if fp, err := FingerprintOf(r); err == nil {
					t.Fatalf("got address %s, want an error", fp)
				}
			}
			store, err := Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			var c Counter
			calls := 0
			next := func(*core.Run) (core.Results, error) {
				calls++
				return testResults(), nil
			}
			_, err = CachedSim(store, next, &c)(p)
			if (err != nil) != (rerr != nil) {
				t.Fatalf("CachedSim error %v, Resolve error %v", err, rerr)
			}
			entries, err := os.ReadDir(store.Dir())
			if err != nil {
				t.Fatal(err)
			}
			if calls != tc.calls || c.Misses() != 1 || len(entries) != 0 {
				t.Errorf("backend calls %d, misses %d, store entries %d; want %d, 1, 0",
					calls, c.Misses(), len(entries), tc.calls)
			}
		})
	}
}

// TestCachedSimAddressesOneRun checks that CachedSim resolves a run
// once and hands that run to its backend: the run the backend gets is
// the one stored under its address, a scenario run's network included,
// and a warm call serves it without the backend.
func TestCachedSimAddressesOneRun(t *testing.T) {
	store, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	p := testParams()
	p.Scenario = ringScenario()
	var got []*core.Run
	next := func(r *core.Run) (core.Results, error) {
		got = append(got, r)
		return r.Simulate()
	}
	var c Counter
	cached := CachedSim(store, next, &c)
	want, err := cached(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("backend called %d times, want 1", len(got))
	}
	r := got[0]
	if !reflect.DeepEqual(r.Params(), mustRun(t, p).Params()) {
		t.Errorf("backend got Params %+v, want the resolved run's", r.Params())
	}
	fp, err := FingerprintOf(r)
	if err != nil {
		t.Fatal(err)
	}
	if res, ok := store.Get(fp); !ok || res != want {
		t.Errorf("store at the backend run's address %s holds %+v (%v), want %+v", fp, res, ok, want)
	}
	if res, err := cached(p); err != nil || res != want || len(got) != 1 || c.Hits() != 1 {
		t.Errorf("warm call: %+v, %v, backend calls %d, hits %d; want the stored result, 1 call, 1 hit",
			res, err, len(got), c.Hits())
	}
}
