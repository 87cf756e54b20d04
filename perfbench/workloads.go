package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"

	"memnet"
	"memnet/internal/core"
	"memnet/internal/experiments"
)

// Input sizes of one pass. Each pass takes about two seconds on a
// 2-CPU x86 container, long enough that timer and scheduling noise is a
// small share of it.
const (
	treeTxns    = 300_000
	figsTxns    = 4_000
	machineTxns = 40_000 // per port
	chaosTxns   = 300_000
)

// workload is one input set of the benchmark: the setup calls of one
// pass, the whole pass (setup, simulation and output checks), and a
// check that runs once against an independent path to the same output.
// BENCHMARK.json records why each workload is in the benchmark.
type workload struct {
	name string
	// fanout marks workloads that fan out over the worker pool (Runner
	// Parallel or RunMachine Shards); the others run one simulation on
	// one goroutine.
	fanout bool
	setup  func(pc *passCtx) error
	pass   func(pc *passCtx) (passOut, error)
	cross  func(pc *passCtx, ref passOut) error
}

// workloads is the benchmark, in report order.
var workloads = []*workload{
	// The per-event hot path: no setup to speak of, no fan-out, no faults.
	{name: "tree-steady", setup: treeSetup, pass: treePass},
	// The paper's figures: many short runs over every topology and NVM
	// mix, on the Runner's fan-out.
	{name: "figs-quick", fanout: true, setup: figsSetup, pass: figsPass, cross: figsCross},
	// The tree's per-port work on the parallel engine.
	{name: "machine-8port", fanout: true, setup: machineSetup, pass: machinePass, cross: machineCross},
	// Writes, PCM occupancy, CRC retries, rerouting, the scenario path.
	{name: "skiplist-nvm-chaos", setup: chaosSetup, pass: chaosPass, cross: chaosCross},
}

// runPass runs one pass; a panic in the simulator becomes the pass's
// error, so the run still ends with a result line that reports it.
func (w *workload) runPass(pc *passCtx) (out passOut, err error) {
	defer recoverInto(&err)
	return w.pass(pc)
}

func (w *workload) runSetup(pc *passCtx) (err error) {
	defer recoverInto(&err)
	return w.setup(pc)
}

func (w *workload) runCross(pc *passCtx, ref passOut) (err error) {
	defer recoverInto(&err)
	return w.cross(pc, ref)
}

func recoverInto(err *error) {
	if p := recover(); p != nil {
		*err = fmt.Errorf("panic: %v", p)
	}
}

// passCtx carries one pass's inputs and, in the traced pass, collects
// a span around each public call the pass makes.
type passCtx struct {
	seed    uint64
	workers int      // fan-out width of fan-out workloads
	scale   float64  // input-size factor: 1, or smaller in tests
	spans   *spanLog // nil outside the traced pass
}

// txns scales a transaction count to the pass's input size.
func (pc *passCtx) txns(n uint64) uint64 {
	return max(1, uint64(float64(n)*pc.scale))
}

// passOut is what one pass produced.
type passOut struct {
	digest uint64 // FNV-1a of the pass's deterministic output
	acc    simAcc
}

// simAcc accumulates simulated statistics over a pass's simulations.
// Every field is an integer, so the totals do not depend on the order
// in which parallel runs finish.
type simAcc struct {
	runs                 int
	txns, events         uint64
	retries              uint64
	finishPs, latencyPs  uint64 // Σ FinishTime; Σ MeanLatency × Transactions
	forwarded, contended uint64 // from Instance.Report, when available
	rowHits, rowAccesses uint64
}

func (a *simAcc) addResults(r memnet.Results) {
	a.runs++
	a.txns += r.Transactions
	a.events += r.Events
	a.retries += r.Fault.Retries
	a.finishPs += uint64(r.FinishTime)
	a.latencyPs += uint64(r.MeanLatency) * r.Transactions
}

func (a *simAcc) addReport(nodes []core.NodeReport) {
	for _, n := range nodes {
		a.forwarded += n.Forwarded
		a.contended += n.Contended
		a.rowHits += n.Banks.RowHits
		a.rowAccesses += n.Banks.RowHits + n.Banks.RowMisses + n.Banks.RowConflicts
	}
}

// metrics renders the simulated statistics (simulated clock; exact).
func (a *simAcc) metrics() map[string]float64 {
	m := map[string]float64{
		"experiments.runs":      float64(a.runs),
		"model.finish_us":       float64(a.finishPs) / 1e6,
		"model.mean_latency_ns": float64(a.latencyPs) / float64(a.txns) / 1e3,
		"model.events_per_txn":  float64(a.events) / float64(a.txns),
		"link.retries_per_ktxn": float64(a.retries) / float64(a.txns) * 1e3,
	}
	if a.forwarded > 0 {
		m["router.contended_frac"] = float64(a.contended) / float64(a.forwarded)
		m["vault.row_hit_frac"] = float64(a.rowHits) / float64(a.rowAccesses)
	}
	return m
}

// checkResults is the output check every simulation must pass.
func checkResults(r memnet.Results, want uint64) error {
	if r.Transactions != want {
		return fmt.Errorf("%s/%s: %d transactions completed, want %d", r.Label, r.Workload, r.Transactions, want)
	}
	if r.Reads+r.Writes != r.Transactions {
		return fmt.Errorf("%s/%s: %d reads + %d writes != %d transactions", r.Label, r.Workload, r.Reads, r.Writes, r.Transactions)
	}
	return nil
}

// digestOf fingerprints a deterministic output.
func digestOf(v any) (uint64, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return 0, fmt.Errorf("digest: %w", err)
	}
	h := fnv.New64a()
	h.Write(data)
	return h.Sum64(), nil
}

func sameDigest(what string, got, want uint64) error {
	if got != want {
		return fmt.Errorf("%s: output digest %016x differs from the warm-up pass's %016x", what, got, want)
	}
	return nil
}

// treeBuild is tree-steady's setup: one port, 100% DRAM tree, KMEANS.
func treeBuild(pc *passCtx) (*memnet.Instance, error) {
	cfg := memnet.DefaultConfig()
	cfg.Transactions = pc.txns(treeTxns)
	cfg.Seed = pc.seed
	id := pc.spans.open("memnet.Build", 0)
	defer pc.spans.close(id)
	return memnet.Build(cfg)
}

func treeSetup(pc *passCtx) error {
	_, err := treeBuild(pc)
	return err
}

func treePass(pc *passCtx) (passOut, error) {
	inst, err := treeBuild(pc)
	if err != nil {
		return passOut{}, err
	}
	return runInstance(pc, inst)
}

// runInstance runs a built single-port simulation and checks it.
func runInstance(pc *passCtx, inst *memnet.Instance) (passOut, error) {
	id := pc.spans.open("Instance.Run", 0)
	res, err := inst.Run()
	pc.spans.close(id)
	if err != nil {
		return passOut{}, err
	}
	if err := checkResults(res, inst.Params.Transactions); err != nil {
		return passOut{}, err
	}
	var out passOut
	out.acc.addResults(res)
	out.acc.addReport(inst.Report())
	out.digest, err = digestOf(res)
	return out, err
}

// figs are the figures figs-quick regenerates.
func figs(r *experiments.Runner) []namedFig {
	return []namedFig{{"Runner.Fig4", r.Fig4}, {"Runner.Fig7", r.Fig7}, {"Runner.Fig11", r.Fig11}}
}

type namedFig struct {
	name string
	fn   func() (*experiments.Table, error)
}

func figsRunner(pc *passCtx) *experiments.Runner {
	return experiments.NewRunner(experiments.Options{Transactions: pc.txns(figsTxns), Seed: pc.seed, Parallel: pc.workers})
}

// figsSetup builds every simulation of the figures through the Runner's
// fan-out without running any: its Sim hook returns a placeholder
// result, the way campaign grid enumeration does.
func figsSetup(pc *passCtx) error {
	r := figsRunner(pc)
	r.Sim = func(p core.Params) (_ core.Results, err error) {
		defer recoverInto(&err) // the hook runs on the Runner's workers
		if _, err := core.Build(p); err != nil {
			return core.Results{}, err
		}
		return core.Results{Transactions: p.Transactions, FinishTime: 1}, nil
	}
	for _, f := range figs(r) {
		if _, err := f.fn(); err != nil {
			return err
		}
	}
	return nil
}

// figsPass regenerates the figures on a fresh Runner whose Sim hook
// builds and runs each simulation itself, so the traced pass can span
// the build apart from the run.
func figsPass(pc *passCtx) (passOut, error) {
	r := figsRunner(pc)
	var (
		mu  sync.Mutex
		out passOut
		fig atomic.Int64 // span of the figure being generated
	)
	r.Sim = func(p core.Params) (_ core.Results, err error) {
		defer recoverInto(&err) // the hook runs on the Runner's workers
		parent := int(fig.Load())
		id := pc.spans.open("core.Build", parent)
		inst, err := core.Build(p)
		pc.spans.close(id)
		if err != nil {
			return core.Results{}, err
		}
		id = pc.spans.open("Instance.Run", parent)
		res, err := inst.Run()
		pc.spans.close(id)
		if err == nil {
			err = checkResults(res, p.Transactions)
		}
		if err != nil {
			return core.Results{}, err
		}
		nodes := inst.Report()
		mu.Lock()
		out.acc.addResults(res)
		out.acc.addReport(nodes)
		mu.Unlock()
		return res, nil
	}
	var tables []*experiments.Table
	for _, f := range figs(r) {
		id := pc.spans.open(f.name, 0)
		fig.Store(int64(id))
		tab, err := f.fn()
		pc.spans.close(id)
		if err != nil {
			return passOut{}, err
		}
		tables = append(tables, tab)
	}
	var err error
	out.digest, err = digestOf(tables)
	return out, err
}

// figsCross regenerates the tables on one worker: the fan-out must not
// change a single cell.
func figsCross(pc *passCtx, ref passOut) error {
	seq := &passCtx{seed: pc.seed, workers: 1, scale: pc.scale}
	out, err := figsPass(seq)
	if err != nil {
		return err
	}
	return sameDigest("figs-quick with Parallel: 1", out.digest, ref.digest)
}

func machineConfig(pc *passCtx, shards int) memnet.Config {
	cfg := memnet.DefaultConfig()
	cfg.Transactions = pc.txns(machineTxns)
	cfg.Seed = pc.seed
	cfg.Shards = shards
	return cfg
}

// machineSetup builds the machine's eight port networks with
// memnet.Build. RunMachine builds the same networks internally and
// offers no hook to time them, yet every workload must report setup_s,
// so the setup readings time this stand-in; the timed passes never run
// it.
func machineSetup(pc *passCtx) error {
	cfg := machineConfig(pc, pc.workers)
	for i := 0; i < memnet.DefaultSystem().Ports; i++ {
		if _, err := memnet.Build(cfg); err != nil {
			return err
		}
	}
	return nil
}

func machinePass(pc *passCtx) (passOut, error) {
	cfg := machineConfig(pc, pc.workers)
	id := pc.spans.open("memnet.RunMachine", 0)
	mr, err := memnet.RunMachine(cfg)
	pc.spans.close(id)
	if err != nil {
		return passOut{}, err
	}
	var out passOut
	for _, r := range mr.PerPort {
		if err := checkResults(r, cfg.Transactions); err != nil {
			return passOut{}, err
		}
		out.acc.addResults(r)
	}
	ports := memnet.DefaultSystem().Ports
	if len(mr.PerPort) != ports || mr.Transactions != out.acc.txns ||
		mr.Reads+mr.Writes != mr.Transactions {
		return passOut{}, fmt.Errorf("machine: %d ports, %d transactions (%d reads + %d writes), want %d ports of %d",
			len(mr.PerPort), mr.Transactions, mr.Reads, mr.Writes, ports, cfg.Transactions)
	}
	out.digest, err = digestOf(mr)
	return out, err
}

// machineCross reruns the machine on one shard, which must reproduce
// the machine bit for bit, and checks port 0 against the single-port
// simulation it is defined to equal.
func machineCross(pc *passCtx, ref passOut) error {
	cfg := machineConfig(pc, 1)
	mr, err := memnet.RunMachine(cfg)
	if err != nil {
		return err
	}
	d, err := digestOf(mr)
	if err != nil {
		return err
	}
	if err := sameDigest("machine-8port with Shards: 1", d, ref.digest); err != nil {
		return err
	}
	single, err := memnet.Run(cfg)
	if err != nil {
		return err
	}
	if single != mr.PerPort[0] {
		return fmt.Errorf("machine port 0 differs from memnet.Run of the same Config")
	}
	return nil
}

// chaosBase is the skip list at 50% DRAM with NVM nearest the host,
// under the write-heavy proxy and augmented distance arbitration.
func chaosBase(seed, txns uint64) memnet.Config {
	return memnet.Config{
		Topology:     memnet.SkipList,
		DRAMFraction: 0.5,
		Placement:    memnet.NVMFirst,
		Arbitration:  memnet.DistanceAugmented,
		Workload:     "BACKPROP",
		Transactions: txns,
		Seed:         seed,
	}
}

// chaosSpec schedules kills, repairs and flaps inside the first 800 µs
// of simulated time (the full-size run ends near 950 µs), over a 1e-6
// bit error rate with unbounded retries, so no packet may be dropped.
func chaosSpec(pc *passCtx) memnet.ChaosSpec {
	return memnet.ChaosSpec{
		Seed:      pc.seed,
		Horizon:   memnet.Time(float64(800*memnet.Microsecond) * pc.scale),
		LinkKills: 4, CubeKills: 1, LaneFlaps: 2,
		LinkBER: 1e-6,
	}
}

// chaosBuild is skiplist-nvm-chaos's setup: export the compiled-in
// skip list as a scenario document, decode it, generate the chaos
// schedule against it, and build.
func chaosBuild(pc *passCtx) (*memnet.Instance, *memnet.FaultConfig, error) {
	base := chaosBase(pc.seed, pc.txns(chaosTxns))
	id := pc.spans.open("memnet.ExportScenario", 0)
	spec, err := memnet.ExportScenario(base, "skiplist-nvm")
	pc.spans.close(id)
	if err != nil {
		return nil, nil, err
	}
	id = pc.spans.open("json.Marshal", 0)
	doc, err := json.Marshal(spec)
	pc.spans.close(id)
	if err != nil {
		return nil, nil, err
	}
	cfg := base
	id = pc.spans.open("memnet.DecodeScenario", 0)
	cfg.Scenario, err = memnet.DecodeScenario(doc)
	pc.spans.close(id)
	if err != nil {
		return nil, nil, err
	}
	id = pc.spans.open("memnet.GenerateChaos", 0)
	cfg.Fault, err = memnet.GenerateChaos(cfg, chaosSpec(pc))
	pc.spans.close(id)
	if err != nil {
		return nil, nil, err
	}
	id = pc.spans.open("memnet.Build", 0)
	inst, err := memnet.Build(cfg)
	pc.spans.close(id)
	return inst, cfg.Fault, err
}

func chaosSetup(pc *passCtx) error {
	_, _, err := chaosBuild(pc)
	return err
}

func chaosPass(pc *passCtx) (passOut, error) {
	inst, fc, err := chaosBuild(pc)
	if err != nil {
		return passOut{}, err
	}
	out, err := runInstance(pc, inst)
	if err != nil {
		return passOut{}, err
	}
	if inst.Watchdog == nil || inst.Watchdog.Tripped() {
		return passOut{}, fmt.Errorf("chaos: watchdog missing or tripped")
	}
	if err := checkChaos(inst.FaultCounters(), fc); err != nil {
		return passOut{}, err
	}
	return out, nil
}

// checkChaos requires every scheduled fault to be applied and repaired
// and no packet to be dropped.
func checkChaos(f memnet.FaultCounters, fc *memnet.FaultConfig) error {
	for _, c := range []struct {
		what      string
		got, want int
	}{
		{"links killed", int(f.LinksKilled), len(fc.KillLinks)},
		{"links repaired", int(f.LinksRepaired), len(fc.RepairLinks)},
		{"cubes killed", int(f.CubesKilled), len(fc.KillCubes)},
		{"cubes repaired", int(f.CubesRepaired), len(fc.RepairCubes)},
		{"lanes flapped down", int(f.LaneFails), len(fc.LaneFlaps)},
		{"lanes flapped up", int(f.LaneRepairs), len(fc.LaneFlaps)},
		{"packets dropped", int(f.Dropped), 0},
	} {
		if c.got != c.want {
			return fmt.Errorf("chaos: %s: %d, want %d", c.what, c.got, c.want)
		}
	}
	if len(fc.KillLinks) == 0 || len(fc.KillCubes) == 0 || len(fc.LaneFlaps) == 0 {
		return fmt.Errorf("chaos: schedule has %d link kills, %d cube kills, %d flaps; want each",
			len(fc.KillLinks), len(fc.KillCubes), len(fc.LaneFlaps))
	}
	return nil
}

// chaosCross runs the compiled-in skip list with the same schedule: the
// scenario export/decode path must simulate bit-identically.
func chaosCross(pc *passCtx, ref passOut) error {
	cfg := chaosBase(pc.seed, pc.txns(chaosTxns))
	fc, err := memnet.GenerateChaos(cfg, chaosSpec(pc))
	if err != nil {
		return err
	}
	cfg.Fault = fc
	res, err := memnet.Run(cfg)
	if err != nil {
		return err
	}
	d, err := digestOf(res)
	if err != nil {
		return err
	}
	return sameDigest("skiplist-nvm-chaos through the compiled-in topology", d, ref.digest)
}
