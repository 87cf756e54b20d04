// Package memnet is a discrete-event simulator for networks of 3D-stacked
// memory cubes, reproducing "There and Back Again: Optimizing the
// Interconnect in Networks of Memory Cubes" (Poremba et al., ISCA 2017).
//
// A memory network (MN) hangs a set of HMC-like memory cubes off each
// memory port of a host processor using high-speed point-to-point SerDes
// links. memnet models the full system — bank-level DRAM/PCM timing,
// vault controllers, cube switches with configurable arbitration, credit
// flow-controlled links with virtual channels, five network topologies
// (chain, ring, ternary tree, the paper's skip-list, and MetaCube
// clusters), DRAM:NVM capacity mixing with placement control, and a
// GPU-like host traffic model — and regenerates every table and figure
// of the paper's evaluation.
//
// # Quick start
//
//	cfg := memnet.DefaultConfig()
//	cfg.Topology = memnet.Tree
//	cfg.Workload = "KMEANS"
//	res, err := memnet.Run(cfg)
//	if err != nil { ... }
//	fmt.Println(res.FinishTime, res.MeanLatency)
//
// Deeper control (custom workloads, tuning, per-component stats) is
// available through Build, which returns the live simulation Instance.
package memnet

import (
	"fmt"

	"memnet/internal/arb"
	"memnet/internal/campaign"
	"memnet/internal/config"
	"memnet/internal/core"
	"memnet/internal/fault"
	"memnet/internal/obs"
	"memnet/internal/packet"
	"memnet/internal/scenario"
	"memnet/internal/sim"
	"memnet/internal/span"
	"memnet/internal/stats"
	"memnet/internal/topology"
	"memnet/internal/workload"
)

// Topology selects the memory-network topology.
type Topology = topology.Kind

// Topology kinds (Fig. 3, Fig. 8, Fig. 9 of the paper).
const (
	Chain    = topology.Chain
	Ring     = topology.Ring
	Tree     = topology.Tree
	SkipList = topology.SkipList
	MetaCube = topology.MetaCube
	// Mesh is an extension topology the paper excludes (its average hop
	// count is worse than a tree); included to verify that claim.
	Mesh = topology.Mesh
)

// Arbitration selects the router arbitration policy.
type Arbitration = arb.Kind

// Arbitration policies (§3.2, §4.1, §5.3).
const (
	RoundRobin        = arb.RoundRobin
	Distance          = arb.Distance
	DistanceAugmented = arb.DistanceAugmented
)

// Placement positions NVM cubes in mixed networks.
type Placement = config.Placement

// Placements (the paper's -L / -F suffixes).
const (
	NVMLast  = config.NVMLast
	NVMFirst = config.NVMFirst
)

// Time re-exports the simulator's picosecond time type.
type Time = sim.Time

// Common durations.
const (
	Picosecond  = sim.Picosecond
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
)

// System is the hardware configuration (the paper's Table 2).
type System = config.System

// DefaultSystem returns the paper's evaluated system: 2TB over 8 ports,
// 16GB DRAM / 64GB NVM cubes, HBM-like and PCM-like timings.
func DefaultSystem() System { return config.Default() }

// WorkloadSpec is a synthetic workload proxy description.
type WorkloadSpec = workload.Spec

// Tx is one memory transaction of a workload trace.
type Tx = workload.Tx

// ReadTrace / WriteTrace serialize transaction traces in the memnet
// text format (see internal/workload).
var (
	ReadTraceFrom = workload.ReadTrace
	WriteTraceTo  = workload.WriteTrace
)

// Workloads returns the paper's eight workload proxies
// (BACKPROP, BIT, BUFF, DCT, HOTSPOT, KMEANS, MATRIXMUL, NW).
func Workloads() []WorkloadSpec { return workload.Suite() }

// WorkloadByName looks up one of the suite workloads.
func WorkloadByName(name string) (WorkloadSpec, error) { return workload.ByName(name) }

// Results summarizes a completed simulation.
type Results = core.Results

// Tuning exposes the microarchitectural constants that are not part of
// the paper's Table 2 (vault queue depths, switch bandwidth, wavefront
// grouping, the write-burst hysteresis watermarks, ...); see
// internal/core for field documentation. Used by the ablation benches.
type Tuning = core.Tuning

// DefaultTuning returns the standard tuning.
func DefaultTuning() Tuning { return core.DefaultTuning() }

// Instance is a built simulation exposing live components; see the
// internal/core documentation for details.
type Instance = core.Instance

// NodeID identifies a node within one port's network; the host is node
// 0 and cubes count up from 1 (used to address CubeKill targets).
type NodeID = packet.NodeID

// FaultConfig configures the deterministic fault-injection and
// recovery layer: a seeded per-link bit error rate (CRC-detected,
// absorbed by HMC-style retry buffers), scheduled lane failures
// (bandwidth down-binding), scheduled link and cube kills (routed
// around via recomputed tables), scheduled repairs that retrain links
// and route traffic back onto the healed paths, transient lane flaps,
// and a progress watchdog that fails wedged runs fast with a
// queue/credit diagnostic. The zero value (or a nil pointer) injects
// nothing and leaves the simulation bit-identical to a fault-free run.
type FaultConfig = fault.Config

// LinkKill / CubeKill / LaneFail schedule individual faults inside a
// FaultConfig; LinkRepair / CubeRepair / LaneFlap schedule the
// matching recoveries (validated against the kill timeline at Build).
type (
	LinkKill   = fault.LinkKill
	CubeKill   = fault.CubeKill
	LaneFail   = fault.LaneFail
	LinkRepair = fault.LinkRepair
	CubeRepair = fault.CubeRepair
	LaneFlap   = fault.LaneFlap
)

// ChaosSpec parameterizes GenerateChaos: how many seeded link kills,
// cube kills, and lane flaps to pack into the schedule horizon.
type ChaosSpec = fault.ChaosSpec

// GenerateChaos builds a validated random kill/repair/flap schedule
// for the configuration's topology: every killed link keeps the
// network connected while down, every kill is repaired within the
// horizon, and the whole schedule passes FaultConfig validation. The
// same Config and ChaosSpec always produce the same schedule.
func GenerateChaos(c Config, spec ChaosSpec) (*FaultConfig, error) {
	p, err := c.params()
	if err != nil {
		return nil, err
	}
	// Chaos schedules address edges of the run's own graph.
	_, g, err := core.NetworkOf(&p)
	if err != nil {
		return nil, err
	}
	fc, err := fault.Chaos(g, spec)
	if err != nil {
		return nil, err
	}
	return &fc, nil
}

// FaultCounters aggregates the resilience layer's whole-run counters
// (Results.Fault); all-zero when fault injection is disabled.
type FaultCounters = stats.FaultCounters

// TelemetryConfig enables the sim-time telemetry layer (internal/obs):
// a metrics registry over routers, links, vaults, and the host, an
// interval sampler snapshotting gauges every SampleInterval of sim
// time, and the exporters behind Instance.Telemetry / Instance.Manifest
// (run-manifest JSON, Perfetto trace, CSV time series). Telemetry never
// perturbs the simulation: Results are bit-identical with it on or off.
type TelemetryConfig = obs.Config

// RunManifest is the machine-readable record of one run; see
// Instance.Manifest.
type RunManifest = obs.Manifest

// SpanConfig enables deterministic causal span tracing (internal/span):
// every SampleStride-th transaction records a span tree decomposing its
// end-to-end latency into host window wait, per-hop queue/retry/
// serialization/SerDes and arbitration waits, and vault queue + service
// time. Spans never perturb the simulation — Results are bit-identical
// with tracing on or off — and are exported with Instance.WriteSpans
// (NDJSON, schema memnet/spans/v1) or WritePerfetto; cmd/mntrace
// analyzes the NDJSON into latency waterfalls and per-edge blame. Spans
// are the one per-packet record of a run.
type SpanConfig = span.Config

// WritePerfetto exports sampled gauge series (Instance.Telemetry) as
// counter tracks and sampled causal spans (Instance.Spans) as nested
// per-transaction slices linked by flow arrows, in Chrome/Perfetto
// trace-event JSON.
var WritePerfetto = obs.WritePerfetto

// ValidateManifestJSON checks a serialized manifest against the
// embedded run-manifest schema.
var ValidateManifestJSON = obs.ValidateManifestJSON

// Scenario is a declarative component-graph specification: a JSON
// document (format memnet/scenario/v1) naming every cube, every link
// (with optional per-link bandwidth/SerDes/buffer/VC/retry overrides),
// per-router arbitration, the host attachment point, and optional
// workload and fault blocks. It expresses irregular networks no
// built-in Topology covers, and every built-in topology can be
// exported to one (ExportScenario) that simulates bit-identically.
// See SCENARIOS.md for the format reference.
type Scenario = scenario.Spec

// ScenarioSchema is the format identifier every scenario document must
// carry in its "schema" field.
const ScenarioSchema = scenario.Schema

// ScenarioSchemaJSON returns the embedded JSON schema documents are
// validated against (also the source of SCENARIOS.md's generated
// reference).
func ScenarioSchemaJSON() []byte { return scenario.SchemaJSON() }

// DecodeScenario parses, validates, and normalizes a scenario document.
// LoadScenario and LoadScenarioFile read one from a stream or a path.
var (
	DecodeScenario   = scenario.Decode
	LoadScenario     = scenario.Load
	LoadScenarioFile = scenario.LoadFile
)

// ExportScenario returns the scenario document the configuration's
// built-in topology is generated as, which simulates bit-identically to
// the original Config (node names host/c1/c2/..., declaration order =
// build order). A non-empty name replaces the generated one
// ("<topology>-<nodes>"). Configs that already carry a Scenario are
// rejected.
func ExportScenario(c Config, name string) (*Scenario, error) {
	if c.Scenario != nil {
		return nil, fmt.Errorf("memnet: ExportScenario of a scenario-backed config")
	}
	p, err := c.params()
	if err != nil {
		return nil, err
	}
	s, _, err := core.NetworkOf(&p)
	if err != nil {
		return nil, err
	}
	s = s.Clone() // the built-in network's spec is shared
	if name != "" {
		s.Name = name
	}
	return s, nil
}

// Config specifies one simulation run through the public API.
type Config struct {
	// System is the hardware platform; zero value means DefaultSystem.
	System *System
	// Topology of each port's memory network; ignored when Scenario is
	// set (the scenario declares the graph).
	Topology Topology
	// Scenario, when non-nil, declares the component graph directly
	// instead of Topology (see LoadScenarioFile). Its workload block
	// applies unless Workload or Custom is set; its fault block applies
	// unless Fault is set.
	Scenario *Scenario
	// DRAMFraction of total capacity (1.0 = all DRAM); the paper labels
	// configurations by this percentage.
	DRAMFraction float64
	// Placement of NVM cubes when 0 < DRAMFraction < 1.
	Placement Placement
	// Arbitration policy in every cube router.
	Arbitration Arbitration
	// Workload is a suite name (see Workloads); Custom overrides it.
	Workload string
	// Custom, if non-nil, is used instead of Workload.
	Custom *WorkloadSpec
	// Transactions to complete (default 20000).
	Transactions uint64
	// Seed for the deterministic workload stream (default 1).
	Seed uint64
	// Fault, when non-nil and non-zero, enables mid-run fault injection
	// (link errors with retry, lane degradation, link/cube kills) and
	// the progress watchdog.
	Fault *FaultConfig
	// ReplayTrace drives the run from a recorded transaction trace
	// instead of the synthetic generator.
	ReplayTrace []Tx
	// Record captures the generated trace (Instance.Recorder).
	Record bool
	// Telemetry, when non-nil and enabled, arms the metrics registry and
	// interval sampler (Instance.Telemetry).
	Telemetry *TelemetryConfig
	// Spans, when non-nil, arms causal span tracing (Instance.Spans /
	// Instance.WriteSpans); see SpanConfig.
	Spans *SpanConfig
	// Tuning overrides the microarchitectural tuning. Nil, or a zero
	// Tuning, runs DefaultTuning(). Any other Tuning is taken field by
	// field and never completed from the defaults: resolving the run
	// (core.Params.Resolved, behind Run, Build, RunMachine, RunCached)
	// fails naming the first field outside its range, e.g. "core:
	// Tuning.VaultQueueDepth is 0, want 1 to 1073741824" for
	// Tuning{WavefrontSize: 16}. Start from DefaultTuning().
	Tuning *Tuning
	// Shards sets the number of worker goroutines RunMachine simulates
	// ports on (clamped to [1, System.Ports]). Results are bit-identical
	// at every value; 1 runs the ports one after another. Run and Build
	// ignore it — they simulate one port.
	Shards int
}

// DefaultConfig returns an all-DRAM tree network running KMEANS.
func DefaultConfig() Config {
	return Config{
		Topology:     Tree,
		DRAMFraction: 1.0,
		Placement:    NVMLast,
		Arbitration:  RoundRobin,
		Workload:     "KMEANS",
		Transactions: 20000,
		Seed:         1,
	}
}

// params converts the public Config into internal core parameters.
func (c Config) params() (core.Params, error) {
	sys := config.Default()
	if c.System != nil {
		sys = *c.System
	}
	sys.DRAMFraction = c.DRAMFraction
	sys.Placement = c.Placement

	var spec workload.Spec
	switch {
	case c.Custom != nil:
		spec = *c.Custom
	case c.Workload != "":
		s, err := workload.ByName(c.Workload)
		if err != nil {
			return core.Params{}, err
		}
		spec = s
	case c.Scenario != nil && c.Scenario.Workload != nil:
		s, _, err := c.Scenario.WorkloadSpec()
		if err != nil {
			return core.Params{}, err
		}
		spec = s
	case len(c.ReplayTrace) > 0:
		spec = workload.Spec{Name: "replay", MeanGap: Nanosecond}
	default:
		return core.Params{}, fmt.Errorf("memnet: no workload specified")
	}

	txns := c.Transactions
	if txns == 0 {
		txns = 20000
	}
	seed := c.Seed
	if seed == 0 {
		seed = 1
	}
	p := core.Params{
		Sys:          sys,
		Topo:         c.Topology,
		Arb:          c.Arbitration,
		Workload:     spec,
		Transactions: txns,
		Seed:         seed,
		Scenario:     c.Scenario,
	}
	p.Fault = c.Fault
	if p.Fault == nil && c.Scenario != nil && c.Scenario.Fault != nil {
		fc, err := core.ScenarioFault(c.Scenario)
		if err != nil {
			return core.Params{}, err
		}
		p.Fault = fc
	}
	p.Replay = c.ReplayTrace
	p.Record = c.Record
	p.Obs = c.Telemetry
	p.Spans = c.Spans
	if c.Tuning != nil {
		p.Tuning = *c.Tuning
	}
	return p, nil
}

// Build constructs a simulation instance without running it, exposing
// the engine and components for instrumentation.
func Build(c Config) (*Instance, error) {
	p, err := c.params()
	if err != nil {
		return nil, err
	}
	return core.Build(p)
}

// Run builds and executes the simulation to completion.
func Run(c Config) (Results, error) {
	p, err := c.params()
	if err != nil {
		return Results{}, err
	}
	return core.Simulate(p)
}

// MachineResults aggregates a whole-machine run; see core.MachineResults.
type MachineResults = core.MachineResults

// MachineManifest assembles the run manifest for a whole-machine run,
// including the per-port load record.
func MachineManifest(c Config, mr MachineResults) (*RunManifest, error) {
	p, err := c.params()
	if err != nil {
		return nil, err
	}
	return core.MachineManifest(core.MachineParams{Base: p, Shards: c.Shards}, mr), nil
}

// RunMachine simulates the whole machine — one memory network per host
// port (System.Ports of them, the paper's §2.3 partitioning) — building
// and running the ports on Config.Shards worker goroutines. Per-port
// workload and fault seeds are derived from Config.Seed (port 0 keeps
// it, so PerPort[0] equals Run of the same Config). Results are
// bit-identical for every Shards value. Record, Telemetry, and Spans
// are rejected: their outputs have no defined cross-port merge yet.
// MachineResults carries a per-port load record (events, finish time,
// barrier wait); MachineManifest serializes it.
func RunMachine(c Config) (MachineResults, error) {
	p, err := c.params()
	if err != nil {
		return MachineResults{}, err
	}
	return core.RunMachine(core.MachineParams{Base: p, Shards: c.Shards})
}

// RunCached is Run backed by the persistent content-addressed result
// cache rooted at cacheDir (created if missing, shared with mnexp
// -cache). A run whose fingerprint is already stored is returned
// without simulating (cached=true); otherwise it simulates and writes
// the result back. Runs that produce side artifacts (trace replay or
// recording, telemetry, span tracing) bypass the cache, as does an
// empty cacheDir.
func RunCached(c Config, cacheDir string) (res Results, cached bool, err error) {
	p, err := c.params()
	if err != nil {
		return Results{}, false, err
	}
	if cacheDir == "" {
		res, err = core.Simulate(p)
		return res, false, err
	}
	store, err := campaign.Open(cacheDir)
	if err != nil {
		return Results{}, false, err
	}
	var n campaign.Counter
	res, err = campaign.CachedSim(store, nil, &n)(p)
	return res, n.Hits() == 1, err
}

// Speedup runs two configurations and returns a's speedup over b
// (b.FinishTime/a.FinishTime - 1), the paper's comparison metric.
func Speedup(a, b Config) (float64, error) {
	ra, err := Run(a)
	if err != nil {
		return 0, err
	}
	rb, err := Run(b)
	if err != nil {
		return 0, err
	}
	return float64(rb.FinishTime)/float64(ra.FinishTime) - 1, nil
}
