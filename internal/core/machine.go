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

// portParams derives port i's simulation parameters from the machine's
// resolved base: a strided workload seed and, when faults are on, a
// strided fault seed, so ports run decorrelated traffic and fault
// streams.
func portParams(base Params, i int) Params {
	p := base
	p.Seed = base.Seed + uint64(i)*portSeedStride
	if p.Fault != nil {
		// Copy so the derived seed never mutates the caller's config.
		fc := *p.Fault
		fc.Seed += uint64(i) * portSeedStride
		p.Fault = &fc
	}
	return p
}

// RunMachine builds and runs one simulation per host port over
// MachineParams.Shards worker goroutines, at most that many port
// networks alive at once. The ports share nothing, so each is an
// ordinary single-port run and results are bit-identical at every
// worker count.
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
	base, err := base.Resolved()
	if err != nil {
		return MachineResults{}, err
	}
	ports := base.Sys.Ports

	results := make([]Results, ports)
	err = fanout.Run(ports, max(mp.Shards, 1), func(i int) (Results, error) {
		r, err := Simulate(portParams(base, i))
		if err != nil {
			return Results{}, fmt.Errorf("core: machine: port %d: %w", i, err)
		}
		return r, nil
	}, func(i int, r Results) error {
		results[i] = r
		return nil
	})
	if err != nil {
		return MachineResults{}, err
	}

	mr := MachineResults{PerPort: results}
	finish := make([]uint64, ports)
	var latW, hopW float64
	for i, r := range results {
		if r.FinishTime > mr.FinishTime {
			mr.FinishTime = r.FinishTime
		}
		finish[i] = uint64(r.FinishTime)
		latW += float64(r.MeanLatency) * float64(r.Transactions)
		hopW += r.MeanHops * float64(r.Transactions)
		mr.Energy.NetworkPJ += r.Energy.NetworkPJ
		mr.Energy.ReadPJ += r.Energy.ReadPJ
		mr.Energy.WritePJ += r.Energy.WritePJ
		mr.Transactions += r.Transactions
		mr.Reads += r.Reads
		mr.Writes += r.Writes
		mr.Events += r.Events
	}
	if mr.Transactions > 0 {
		mr.MeanLatency = sim.Time(latW / float64(mr.Transactions))
		mr.MeanHops = hopW / float64(mr.Transactions)
	}
	mr.Fairness = obs.Jain(finish)
	for i, r := range results {
		mr.Shards = append(mr.Shards, ShardLoad{
			Shard:         i,
			Events:        r.Events,
			FinishPs:      int64(r.FinishTime),
			BarrierWaitPs: int64(mr.FinishTime - r.FinishTime),
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
