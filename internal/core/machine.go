package core

import (
	"fmt"

	"memnet/internal/energy"
	"memnet/internal/fanout"
	"memnet/internal/obs"
	"memnet/internal/sim"
)

// portSeedStride decorrelates per-port workload streams. Port 0 keeps
// the base seed, so a machine run's first port reproduces the
// single-port simulation bit for bit (pinned by tests).
const portSeedStride = 0x9e3779b97f4a7c15

// MachineParams configures a whole-machine run: the full processor with
// Base.Sys.Ports host ports, each driving its own disjoint memory
// network (§2.3 — ports do not share cubes, so the machine partitions
// exactly along port boundaries). Base holds the per-port simulation
// parameters; per-port seeds are derived from Base.Seed so ports are
// statistically independent but the whole run stays reproducible.
type MachineParams struct {
	Base Params
	// Shards is the number of worker goroutines simulating ports
	// (clamped to [1, ports]). Results are bit-identical for every
	// value; 1 runs the ports one after another.
	Shards int
}

// ShardLoad is one port's load record in a whole-machine run: how much
// work the port's simulation did and how long it idled waiting for the
// slowest port. JSON tags match the run-manifest schema's
// machine.shards entries.
type ShardLoad struct {
	// Shard is the host port index.
	Shard int `json:"shard"`
	// Events counts events fired on the port's engine.
	Events uint64 `json:"events"`
	// FinishPs is the port's finish time, in picoseconds.
	FinishPs int64 `json:"finish_ps"`
	// BarrierWaitPs is how long the port idled at the end of the run:
	// the machine finish time minus the port's own finish time.
	BarrierWaitPs int64 `json:"barrier_wait_ps"`
}

// MachineRecord is the manifest's per-port load block.
type MachineRecord struct {
	// Ports is the number of host ports.
	Ports int `json:"ports"`
	// Shards holds the per-port load records, in port order.
	Shards []ShardLoad `json:"shards"`
}

// MachineResults aggregates a whole-machine run.
type MachineResults struct {
	// PerPort holds each port's full Results, index = port.
	PerPort []Results
	// FinishTime is the machine's execution time: the slowest port.
	FinishTime sim.Time
	// MeanLatency is the transaction-weighted mean latency across ports.
	MeanLatency sim.Time
	// Energy sums the per-port dynamic-energy accounts.
	Energy energy.Breakdown
	// Transactions, Reads, Writes, and Events sum the per-port counts.
	Transactions uint64
	Reads        uint64
	Writes       uint64
	Events       uint64
	// MeanHops is the transaction-weighted mean response hop count.
	MeanHops float64
	// Fairness is Jain's index over per-port finish times: 1.0 when
	// every port finishes together, lower when load or faults skew one
	// port's completion.
	Fairness float64
	// Shards holds the per-port load records, in port order.
	Shards []ShardLoad
}

// port returns port i of a machine run of r: r with its workload seed
// and, when faults are on, its fault seed strided, so ports run
// decorrelated traffic and fault streams over r's network, which every
// port shares read-only.
func (r *Run) port(i int) Run {
	p := r.p
	p.Seed += uint64(i) * portSeedStride
	if p.Fault != nil {
		// Copy so the derived seed never mutates the base run's config.
		fc := *p.Fault
		fc.Seed += uint64(i) * portSeedStride
		p.Fault = &fc
	}
	return Run{p: p, net: r.net}
}

// RunMachine builds and runs one simulation per host port over
// MachineParams.Shards worker goroutines, at most that many port
// networks alive at once. The ports share nothing, so each is an
// ordinary single-port run and results are bit-identical at every
// worker count. The base is resolved once and every port shares its
// network. Each port runs through Run.Simulate, so a worker lays its
// next port's network out in the memory of its last one, and a machine
// run allocates about one network per worker rather than one per port.
func RunMachine(mp MachineParams) (MachineResults, error) {
	base := mp.Base
	if base.Record {
		return MachineResults{}, fmt.Errorf("core: machine runs do not support Record (per-port traces would need a merge policy)")
	}
	if base.Obs.On() {
		return MachineResults{}, fmt.Errorf("core: machine runs do not support telemetry yet (per-port probe merge is undefined; use single-port runs)")
	}
	if base.Spans.Enabled() {
		return MachineResults{}, fmt.Errorf("core: machine runs do not support span tracing (per-port span files would need a merge policy; use single-port runs)")
	}
	run, err := Resolve(base)
	if err != nil {
		return MachineResults{}, err
	}
	return run.machine(mp.Shards)
}

// machine runs one simulation per port of r (Run.port) over shards
// worker goroutines: RunMachine of the resolved base.
func (r *Run) machine(shards int) (MachineResults, error) {
	ports := r.p.Sys.Ports
	results := make([]Results, ports)
	err := fanout.Run(ports, max(shards, 1), func(i int) (Results, error) {
		port := r.port(i)
		res, err := port.Simulate()
		if err != nil {
			return Results{}, fmt.Errorf("core: machine: port %d: %w", i, err)
		}
		return res, nil
	}, func(i int, res Results) error {
		results[i] = res
		return nil
	})
	if err != nil {
		return MachineResults{}, err
	}

	mr := MachineResults{PerPort: results}
	finish := make([]uint64, ports)
	var latW, hopW float64
	for i, res := range results {
		if res.FinishTime > mr.FinishTime {
			mr.FinishTime = res.FinishTime
		}
		finish[i] = uint64(res.FinishTime)
		latW += float64(res.MeanLatency) * float64(res.Transactions)
		hopW += res.MeanHops * float64(res.Transactions)
		mr.Energy.NetworkPJ += res.Energy.NetworkPJ
		mr.Energy.ReadPJ += res.Energy.ReadPJ
		mr.Energy.WritePJ += res.Energy.WritePJ
		mr.Transactions += res.Transactions
		mr.Reads += res.Reads
		mr.Writes += res.Writes
		mr.Events += res.Events
	}
	if mr.Transactions > 0 {
		mr.MeanLatency = sim.Time(latW / float64(mr.Transactions))
		mr.MeanHops = hopW / float64(mr.Transactions)
	}
	mr.Fairness = obs.Jain(finish)
	for i, res := range results {
		mr.Shards = append(mr.Shards, ShardLoad{
			Shard:         i,
			Events:        res.Events,
			FinishPs:      int64(res.FinishTime),
			BarrierWaitPs: int64(mr.FinishTime - res.FinishTime),
		})
	}
	return mr, nil
}

// MachineManifest assembles the run manifest for a whole-machine run:
// reproduction inputs, the aggregate results, the label its ports'
// runs report, and the per-port load record (events, finish time,
// barrier wait).
func MachineManifest(mp MachineParams, mr MachineResults) *obs.Manifest {
	m := obs.NewManifest()
	if len(mr.PerPort) > 0 {
		m.Label = mr.PerPort[0].Label
	}
	m.Seed = int64(mp.Base.Seed)
	m.Workload = mp.Base.Workload.Name
	m.Config = mp.Base.Sys
	m.Results = mr
	m.Machine = MachineRecord{Ports: len(mr.Shards), Shards: mr.Shards}
	return m
}
