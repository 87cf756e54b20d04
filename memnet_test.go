package memnet

import (
	"strings"
	"testing"
)

func TestRunDefault(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Transactions = 2000
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Transactions != 2000 {
		t.Fatalf("completed %d", res.Transactions)
	}
	if res.Label != "100%-T" {
		t.Fatalf("label %q", res.Label)
	}
	if res.FinishTime <= 0 || res.MeanLatency <= 0 {
		t.Fatal("timings not populated")
	}
	if res.Energy.TotalPJ() <= 0 {
		t.Fatal("energy not populated")
	}
}

func TestBuildExposesInstance(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Transactions = 500
	in, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if in.Graph.NumNodes() != 17 { // host + 16 cubes
		t.Fatalf("nodes = %d", in.Graph.NumNodes())
	}
	res, err := in.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Transactions != 500 {
		t.Fatal("instance run incomplete")
	}
}

func TestCustomWorkload(t *testing.T) {
	spec := WorkloadSpec{
		Name: "custom", ReadFraction: 1.0,
		MeanGap: 10 * Nanosecond, SeqProb: 0.9, SeqStride: 64,
	}
	cfg := DefaultConfig()
	cfg.Custom = &spec
	cfg.Transactions = 1000
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Writes != 0 {
		t.Fatalf("all-read workload produced %d writes", res.Writes)
	}
}

func TestConfigErrors(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Workload = "MISSING"
	if _, err := Run(cfg); err == nil {
		t.Fatal("unknown workload must fail")
	}
	cfg = Config{Topology: Tree, DRAMFraction: 1}
	if _, err := Run(cfg); err == nil {
		t.Fatal("missing workload must fail")
	}
}

func TestSpeedupHelper(t *testing.T) {
	a := DefaultConfig()
	a.Transactions = 1500
	b := a
	b.Topology = Chain
	s, err := Speedup(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if s <= 0 {
		t.Fatalf("tree over chain speedup %.2f, want positive", s)
	}
}

func TestWorkloadsExposed(t *testing.T) {
	if len(Workloads()) != 8 {
		t.Fatal("suite size")
	}
	if _, err := WorkloadByName("NW"); err != nil {
		t.Fatal(err)
	}
}

func TestSystemOverride(t *testing.T) {
	sys := DefaultSystem()
	sys.Ports = 4
	cfg := DefaultConfig()
	cfg.System = &sys
	cfg.Transactions = 1000
	in, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 4 ports -> 512GB/port -> 32 cubes.
	if got := len(in.Graph.CubeIDs()); got != 32 {
		t.Fatalf("cubes = %d, want 32", got)
	}
}

func TestRecordAndReplay(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Transactions = 800
	cfg.Record = true
	in, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	orig, err := in.Run()
	if err != nil {
		t.Fatal(err)
	}
	trace := in.Recorder.Trace()
	if len(trace) < 800 {
		t.Fatalf("recorded %d", len(trace))
	}

	// Replaying the captured trace reproduces the run exactly.
	replay := DefaultConfig()
	replay.Transactions = 800
	replay.Workload = ""
	replay.ReplayTrace = trace
	res, err := Run(replay)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinishTime != orig.FinishTime || res.Reads != orig.Reads {
		t.Fatalf("replay diverged: %v/%d vs %v/%d",
			res.FinishTime, res.Reads, orig.FinishTime, orig.Reads)
	}
}

// TestPartialTuningFails: a partly set Tuning is not completed from
// the defaults. Run, Build and RunMachine return an error naming the
// first field out of range instead of panicking inside a component,
// and a Tuning built from DefaultTuning() with one field changed runs.
func TestPartialTuningFails(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Transactions = 200
	cfg.Tuning = &Tuning{WavefrontSize: 16}
	const want = "Tuning.VaultQueueDepth"
	if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("Run: error %v, want one naming %s", err, want)
	}
	if _, err := Build(cfg); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("Build: error %v, want one naming %s", err, want)
	}
	if _, err := RunMachine(cfg); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("RunMachine: error %v, want one naming %s", err, want)
	}
	for field, set := range map[string]func(*Tuning){
		"Tuning.InterposerSerDes": func(tn *Tuning) { tn.InterposerSerDes = -1 },
		"Tuning.ShortcutLo":       func(tn *Tuning) { tn.ShortcutLo = tn.ShortcutHi + 0.1 },
		"Tuning.WriteDemotion":    func(tn *Tuning) { tn.WriteDemotion = 0 },
	} {
		tn := DefaultTuning()
		set(&tn)
		cfg.Tuning = &tn
		if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), field) {
			t.Errorf("Run: error %v, want one naming %s", err, field)
		}
	}
	tn := DefaultTuning()
	tn.WavefrontSize = 1
	cfg.Tuning = &tn
	if _, err := Run(cfg); err != nil {
		t.Errorf("DefaultTuning with WavefrontSize 1: %v", err)
	}
}

func TestAblationTunings(t *testing.T) {
	base := DefaultConfig()
	base.Transactions = 1500
	r0, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	// Ideal switch must be at least as fast as the contended one.
	tn := DefaultTuning()
	tn.SwitchBandwidthBps = 0
	fast := base
	fast.Tuning = &tn
	r1, err := Run(fast)
	if err != nil {
		t.Fatal(err)
	}
	if r1.FinishTime > r0.FinishTime {
		t.Fatalf("ideal switch slower: %v > %v", r1.FinishTime, r0.FinishTime)
	}
	// A tiny window must slow completion substantially.
	sys := DefaultSystem()
	sys.MaxOutstanding = 8
	slow := base
	slow.System = &sys
	r2, err := Run(slow)
	if err != nil {
		t.Fatal(err)
	}
	if float64(r2.FinishTime) < float64(r0.FinishTime)*1.3 {
		t.Fatalf("window=8 barely slowed the run: %v vs %v", r2.FinishTime, r0.FinishTime)
	}
}

// TestFailLinksPublic is the public-API recipe for a failed link: export
// the built-in topology as a scenario, delete the link, and run it. A
// ring reroutes around the cut; a chain cut disconnects and fails.
func TestFailLinksPublic(t *testing.T) {
	cut := func(topo Topology, link int) Config {
		cfg := DefaultConfig()
		cfg.Topology = topo
		cfg.Transactions = 800
		s, err := ExportScenario(cfg, "")
		if err != nil {
			t.Fatal(err)
		}
		s.Links = append(s.Links[:link], s.Links[link+1:]...)
		cfg.Scenario = s
		return cfg
	}
	res, err := Run(cut(Ring, 2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Transactions != 800 {
		t.Fatal("degraded ring did not complete")
	}
	if _, err := Run(cut(Chain, 2)); err == nil {
		t.Fatal("chain cut must fail")
	}
}

// TestRunMachineSystem checks the whole-machine aggregates against the
// paper's disjoint-port argument (§2.3): eight statistically identical
// ports, the machine finishing with its slowest one.
func TestRunMachineSystem(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Transactions = 1200
	cfg.Shards = 2
	mr, err := RunMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(mr.PerPort) != 8 {
		t.Fatalf("ports = %d", len(mr.PerPort))
	}
	// The machine finishes with its slowest port.
	minFin, maxFin := mr.PerPort[0].FinishTime, mr.PerPort[0].FinishTime
	for _, r := range mr.PerPort {
		minFin, maxFin = min(minFin, r.FinishTime), max(maxFin, r.FinishTime)
	}
	if mr.FinishTime != maxFin {
		t.Fatalf("finish %v is not the slowest port's %v", mr.FinishTime, maxFin)
	}
	// Ports are statistically identical: the paper's disjoint-slice
	// argument predicts a small finish-time spread.
	if spread := float64(maxFin)/float64(minFin) - 1; spread > 0.15 {
		t.Fatalf("port spread %.2f too large for symmetric ports", spread)
	}
	if mr.MeanLatency <= 0 || mr.Energy.TotalPJ() <= 0 || mr.Transactions != 8*cfg.Transactions ||
		mr.Events == 0 || mr.MeanHops <= 0 || mr.Fairness <= 0 {
		t.Fatalf("aggregates not populated: %+v", mr)
	}
	// Energy is roughly 8x a single port's.
	total, single := mr.Energy.TotalPJ(), mr.PerPort[0].Energy.TotalPJ()
	if total < 6*single || total > 10*single {
		t.Fatalf("machine energy %.0f vs single %.0f", total, single)
	}
}
