package core

import (
	"reflect"
	"testing"

	"memnet/internal/arb"
	"memnet/internal/config"
	"memnet/internal/scenario"
	"memnet/internal/sim"
	"memnet/internal/topology"
	"memnet/internal/workload"
)

// scenarioParams returns baseline params for a scenario run.
func scenarioParams(t *testing.T, s *scenario.Spec) Params {
	t.Helper()
	wl, err := workload.ByName("KMEANS")
	if err != nil {
		t.Fatal(err)
	}
	return Params{
		Sys:          config.Default(),
		Arb:          arb.RoundRobin,
		Workload:     wl,
		Transactions: 800,
		Seed:         7,
		Scenario:     s,
	}
}

// twoPod declares an irregular two-ring graph with a bridge cube.
func twoPod() *scenario.Spec {
	node := func(name string) scenario.Node { return scenario.Node{Name: name} }
	link := func(a, b string) scenario.Link { return scenario.Link{A: a, B: b} }
	return &scenario.Spec{
		Schema: scenario.Schema,
		Name:   "two-pod",
		Nodes: []scenario.Node{
			node("a0"), node("a1"), node("a2"), node("a3"),
			node("x"),
			node("b0"), node("b1"), node("b2"), node("b3"),
		},
		Links: []scenario.Link{
			link("host", "a0"),
			link("a0", "a1"), link("a1", "a2"), link("a2", "a3"), link("a3", "a0"),
			link("a0", "x"), link("x", "b0"),
			link("b0", "b1"), link("b1", "b2"), link("b2", "b3"), link("b3", "b0"),
		},
	}
}

// TestScenarioRoundTripGolden is the format-completeness proof: for
// every paper topology, simulating its generated spec as a scenario
// run, after a JSON round trip, must produce byte-identical Results to
// the built-in run — same label, same finish time, same every counter.
func TestScenarioRoundTripGolden(t *testing.T) {
	for _, kind := range topology.Kinds {
		p := scenarioParams(t, nil)
		p.Topo = kind
		direct, err := Simulate(p)
		if err != nil {
			t.Fatalf("%v direct: %v", kind, err)
		}

		shared, _, err := NetworkOf(&p)
		if err != nil {
			t.Fatal(err)
		}
		spec := shared.Clone()
		spec.Name = "roundtrip"
		// Serialize and re-decode: the proof must cover the JSON file
		// format, not just the in-memory structs.
		reloaded, err := scenario.Decode(spec.Canonical())
		if err != nil {
			t.Fatalf("%v export does not decode: %v", kind, err)
		}
		ps := scenarioParams(t, reloaded)
		via, err := Simulate(ps)
		if err != nil {
			t.Fatalf("%v scenario: %v", kind, err)
		}
		if !reflect.DeepEqual(direct, via) {
			t.Errorf("%v: scenario run differs from compiled-in run\ndirect: %+v\nvia:    %+v",
				kind, direct, via)
		}
	}
}

// TestScenarioIrregularRuns checks a graph no built-in kind expresses
// simulates to completion, deterministically, labeled by its name.
func TestScenarioIrregularRuns(t *testing.T) {
	p := scenarioParams(t, twoPod())
	a, err := Simulate(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("irregular scenario run is not deterministic")
	}
	if a.Label != "two-pod" {
		t.Errorf("label = %q, want two-pod", a.Label)
	}
	if a.FinishTime == 0 || a.Reads == 0 {
		t.Errorf("degenerate results: %+v", a)
	}
}

// TestScenarioOverridesChangeBehavior checks each override class is
// actually wired into the built network, not just parsed: pinning it
// must move the deterministic Results.
func TestScenarioOverridesChangeBehavior(t *testing.T) {
	base, err := Simulate(scenarioParams(t, twoPod()))
	if err != nil {
		t.Fatal(err)
	}
	mutations := map[string]func(s *scenario.Spec){
		"bandwidth": func(s *scenario.Spec) {
			bw := int64(40e9)
			s.Links[0].BandwidthBps = &bw
		},
		"serdes": func(s *scenario.Spec) {
			ps := int64(20000)
			s.Links[0].SerDesPs = &ps
		},
		"buffer": func(s *scenario.Spec) {
			depth := 1
			s.Links[0].BufferPackets = &depth
		},
		"router-arb": func(s *scenario.Spec) {
			s.Routers = map[string]scenario.Router{"a0": {Arb: "distance"}}
		},
		"router-xbar": func(s *scenario.Spec) {
			bw := int64(50e9)
			s.Routers = map[string]scenario.Router{"a0": {SwitchBandwidthBps: &bw}}
		},
	}
	for name, mut := range mutations {
		s := twoPod()
		mut(s)
		got, err := Simulate(scenarioParams(t, s))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if reflect.DeepEqual(base, got) {
			t.Errorf("%s override does not change the simulation", name)
		}
	}
}

// TestScenarioTechPlacement checks per-cube NVM declarations take
// effect: an all-NVM pod must slow down versus the all-DRAM spec.
func TestScenarioTechPlacement(t *testing.T) {
	s := twoPod()
	for i := range s.Nodes {
		s.Nodes[i].Tech = "nvm"
	}
	nvm, err := Simulate(scenarioParams(t, s))
	if err != nil {
		t.Fatal(err)
	}
	dram, err := Simulate(scenarioParams(t, twoPod()))
	if err != nil {
		t.Fatal(err)
	}
	if nvm.FinishTime <= dram.FinishTime {
		t.Errorf("all-NVM finish %v not slower than all-DRAM %v", nvm.FinishTime, dram.FinishTime)
	}
}

// TestScenarioFaultConversion checks the picosecond fault block
// converts faithfully and arms the resilience layer.
func TestScenarioFaultConversion(t *testing.T) {
	s := twoPod()
	s.Fault = &scenario.Fault{
		Seed:       9,
		LinkBER:    1e-6,
		MaxRetries: 3,
		KillLinks:  []scenario.LinkEvent{{Link: 2, AtPs: 5_000_000}},
		KillCubes:  []scenario.CubeEvent{{Cube: "b2", AtPs: 7_000_000, Full: true}},
		LaneFlaps:  []scenario.FlapEvent{{Link: 7, DownPs: 1_000_000, UpPs: 2_000_000}},
	}
	if err := s.Normalize(); err != nil {
		t.Fatal(err)
	}
	cfg, err := ScenarioFault(s)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.LinkBER != 1e-6 || cfg.MaxRetries != 3 || cfg.Seed != 9 {
		t.Fatalf("converted config = %+v", cfg)
	}
	if len(cfg.KillLinks) != 1 || cfg.KillLinks[0].Edge != 2 ||
		cfg.KillLinks[0].At != 5*sim.Microsecond {
		t.Fatalf("kill links = %+v", cfg.KillLinks)
	}
	// b2 is node index 7 (+1 for the host) in declaration order.
	if len(cfg.KillCubes) != 1 || int(cfg.KillCubes[0].Node) != 8 || !cfg.KillCubes[0].Full {
		t.Fatalf("kill cubes = %+v", cfg.KillCubes)
	}
	if len(cfg.LaneFlaps) != 1 || cfg.LaneFlaps[0].Up != 2*sim.Microsecond {
		t.Fatalf("lane flaps = %+v", cfg.LaneFlaps)
	}
	// The converted plan must survive a run end to end.
	p := scenarioParams(t, s)
	p.Fault = cfg
	if _, err := Simulate(p); err != nil {
		t.Fatalf("faulted scenario run: %v", err)
	}
	// An empty fault block converts to nil.
	if cfg, err := ScenarioFault(twoPod()); err != nil || cfg != nil {
		t.Fatalf("nil fault block: %v, %v", cfg, err)
	}
}

// TestScenarioLinkWiring inspects the built instance directly for the
// override classes whose effect host-centric traffic cannot expose:
// vcs:1 flips the link's VC arbitration mode (requests and responses
// never compete for one direction under pure host traffic), and the
// per-direction config must carry the bandwidth/SerDes overrides.
func TestScenarioLinkWiring(t *testing.T) {
	s := twoPod()
	one, bw, ser := 1, int64(40e9), int64(20000)
	s.Links[0].VCs = &one
	s.Links[2].BandwidthBps = &bw
	s.Links[2].SerDesPs = &ser
	inst, err := Build(scenarioParams(t, s))
	if err != nil {
		t.Fatal(err)
	}
	if !inst.dirs[0].ab.VCRoundRobin() || !inst.dirs[0].ba.VCRoundRobin() {
		t.Error("vcs:1 override did not disable VC priority on link 0")
	}
	if inst.dirs[1].ab.VCRoundRobin() {
		t.Error("vcs override leaked onto link 1")
	}
	if got := inst.dirs[2].ab.Bandwidth(); got != bw {
		t.Errorf("link 2 bandwidth = %d, want %d", got, bw)
	}
	if got := inst.dirs[2].ab.SerDes(); got != sim.Time(ser)*sim.Picosecond {
		t.Errorf("link 2 serdes = %v, want %dps", got, ser)
	}
}

// TestScenarioPerLinkRetries checks the per-link retry override
// reaches the armed link fault state. MaxRetries 0 means unlimited
// retries, so at this error rate the run completes; capping the host
// link at one retry makes a double-error drop the packet, and the
// stranded transaction trips the progress watchdog.
func TestScenarioPerLinkRetries(t *testing.T) {
	run := func(override bool) error {
		s := twoPod()
		if override {
			one := 1
			s.Links[0].MaxRetries = &one
		}
		s.Fault = &scenario.Fault{Seed: 1, LinkBER: 1e-3, Watchdog: true}
		if err := s.Normalize(); err != nil {
			t.Fatal(err)
		}
		cfg, err := ScenarioFault(s)
		if err != nil {
			t.Fatal(err)
		}
		p := scenarioParams(t, s)
		p.Fault = cfg
		_, err = Simulate(p)
		return err
	}
	if err := run(false); err != nil {
		t.Errorf("unlimited retries: %v", err)
	}
	if err := run(true); err == nil {
		t.Error("per-link max_retries cap did not strand the run")
	}
}

// TestScenarioMachineShardsIdentical checks a scenario machine run
// stays bit-identical, per-port load records included, across worker
// counts.
func TestScenarioMachineShardsIdentical(t *testing.T) {
	base := scenarioParams(t, twoPod())
	base.Transactions = 400
	var got []MachineResults
	for _, shards := range []int{1, 2} {
		mr, err := RunMachine(MachineParams{Base: base, Shards: shards})
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		got = append(got, mr)
	}
	if !reflect.DeepEqual(got[0], got[1]) {
		t.Errorf("machine results differ across shard counts:\n%+v\n%+v", got[0], got[1])
	}
}

// TestScenarioMachineSkipsCapacity checks a scenario machine run takes
// its cubes from the spec, as a single scenario run does: a DRAM
// fraction whose per-port capacity is no whole number of cubes (30% of
// 256 GB) still runs, and port 0 equals the single-port run.
func TestScenarioMachineSkipsCapacity(t *testing.T) {
	base := scenarioParams(t, twoPod())
	base.Transactions = 400
	base.Sys.DRAMFraction = 0.3
	single, err := Simulate(base)
	if err != nil {
		t.Fatal(err)
	}
	mr, err := RunMachine(MachineParams{Base: base, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(mr.PerPort[0], single) {
		t.Errorf("port 0 drifted from the single-port run\n port0: %+v\nsingle: %+v", mr.PerPort[0], single)
	}
}
