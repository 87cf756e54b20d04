// Package campaign is the persistent result cache behind
// internal/experiments: a content-addressed store of simulation results
// keyed by a canonical fingerprint of the complete run configuration,
// and CachedSim, a simulation hook that serves every cacheable run
// already on disk without simulating it and writes each new one back.
//
// `mnexp -cache DIR` installs CachedSim in the experiment runner, so an
// interrupted campaign resumes and a repeated one simulates nothing;
// memnet.RunCached (and through it `mnsweep -cache`) uses the same hook
// for single runs. See DESIGN.md, "Campaigns & result cache".
package campaign

import (
	"fmt"

	"memnet/internal/config"
	"memnet/internal/core"
	"memnet/internal/fault"
	"memnet/internal/fnv"
	"memnet/internal/workload"
)

// CacheSchema identifies the result-cache envelope layout AND the
// semantic version of the simulator's result-producing code. It is part
// of every fingerprint and every envelope: bumping it atomically
// invalidates all cached results. Bump it whenever (a) the envelope
// format changes, (b) core.Results gains/loses/renames a field, or
// (c) a simulation-semantics change makes old results wrong for the
// same configuration. The fingerprint coverage test
// (TestFingerprintCoverage) forces a review of this constant whenever a
// fingerprinted configuration struct changes shape.
const CacheSchema = "memnet/result-cache/v5"

// Fingerprint is the content address of one simulation run: an FNV-1a
// hash of the canonical encoding of everything that determines its
// Results — system configuration, component graph, arbitration,
// workload specification, trace length, seed, tuning, fault scenario,
// and the cache schema version.
type Fingerprint uint64

// String renders the fingerprint as fixed-width hex (the cache
// filename stem).
func (f Fingerprint) String() string { return fmt.Sprintf("%016x", uint64(f)) }

// Cacheable reports whether the run's results may be served from (and
// written to) the persistent cache. Runs that exist for their side
// artifacts — trace replay/record, telemetry observers, causal span
// tracing — are excluded: their Results alone do
// not capture what the caller asked for (and a replayed trace is not
// covered by the fingerprint).
func Cacheable(p core.Params) bool {
	return len(p.Replay) == 0 && !p.Record && p.Obs == nil && p.Spans == nil
}

// FingerprintParams computes the content address of one run. Coverage
// rules (enforced by TestFingerprintCoverage against the shapes of the
// structs below):
//
//   - Every field of config.System, workload.Spec, core.Tuning, and
//     fault.Config (and its kill-schedule entries) is folded, in
//     declaration order, each prefixed with a field label so that
//     adjacent zero values cannot alias across fields.
//   - Params fields that select the run are folded (Arb,
//     Transactions, Seed, KeepSamples); fields that only produce side
//     artifacts (Replay, Record, Obs, Spans) are NOT folded — runs
//     using them are not Cacheable.
//   - The graph is folded as the canonical bytes of the spec
//     core.GraphSpec returns, which covers Topo and Scenario alike: a
//     built-in run and a run of its exported scenario share an
//     address.
//   - Nil-able sub-configs fold a presence marker first, so nil and
//     zero-valued configs hash differently.
//   - CacheSchema is folded first, so a schema/semantics bump changes
//     every address.
func FingerprintParams(p core.Params) Fingerprint {
	h := fnv.New().Str(CacheSchema)
	h = hashSystem(h, p.Sys)
	h = hashGraph(h, &p)
	h = h.Str("arb").Str(p.Arb.String())
	h = hashWorkload(h, p.Workload)
	h = h.Str("txns").U64(p.Transactions)
	h = h.Str("seed").U64(p.Seed)
	h = h.Str("keep").Bool(p.KeepSamples)
	h = hashTuning(h, p.Tuning)
	h = hashFault(h, p.Fault)
	return Fingerprint(h.Sum())
}

// hashGraph folds the run's component graph as the canonical bytes of
// its scenario spec: defaults materialized, keys sorted. Two scenario
// files that mean the same run — different formatting, key order, or
// elided defaults — therefore share a fingerprint, and a re-loaded file
// is a cache hit. Folding the canonical bytes also covers every future
// Spec field automatically, which is why the coverage test pins no
// scenario struct shapes. A run whose graph cannot be generated folds
// the error text instead; it fails before simulating.
func hashGraph(h fnv.Hash, p *core.Params) fnv.Hash {
	s, err := core.GraphSpec(p)
	if err != nil {
		return h.Str("graph-error").Str(err.Error())
	}
	return h.Str("graph").Str(string(s.Canonical()))
}

// hashSystem folds every field of the system configuration.
func hashSystem(h fnv.Hash, s config.System) fnv.Hash {
	h = h.Str("sys")
	h = h.Int(s.Ports).U64(s.TotalCapacity).U64(s.DRAMCubeCapacity).U64(s.NVMCubeCapacity)
	h = h.F64(s.DRAMFraction).Str(s.Placement.String())
	h = h.Int(s.BanksPerCube).Int(s.Quadrants).U64(s.RowBytes)
	h = h.Int(s.LinkLanes).I64(s.LaneRateBps)
	h = h.I64(int64(s.SerDesLatency)).I64(int64(s.WrongQuadrantPenalty))
	h = h.Int(s.LinkBufferPackets).U64(s.InterleaveBytes)
	h = h.Int(s.MaxOutstanding).I64(int64(s.HostLatency))
	h = hashTiming(h.Str("dram"), s.DRAMTiming)
	h = hashTiming(h.Str("nvm"), s.NVMTiming)
	h = h.Str("energy").F64(s.Energy.NetworkPJPerBitHop).
		F64(s.Energy.DRAMReadPJPerBit).F64(s.Energy.DRAMWritePJPerBit).
		F64(s.Energy.NVMReadPJPerBit).F64(s.Energy.NVMWritePJPerBit)
	return h
}

// hashTiming folds one memory technology's timing parameters.
func hashTiming(h fnv.Hash, t config.MemTiming) fnv.Hash {
	return h.I64(int64(t.TRCD)).I64(int64(t.TCL)).I64(int64(t.TRP)).
		I64(int64(t.TRAS)).I64(int64(t.TWR)).I64(int64(t.Burst)).
		I64(int64(t.RefInterval)).I64(int64(t.RefDuration))
}

// hashWorkload folds every field of the workload specification.
func hashWorkload(h fnv.Hash, w workload.Spec) fnv.Hash {
	h = h.Str("wl").Str(w.Name)
	h = h.F64(w.ReadFraction).I64(int64(w.MeanGap))
	h = h.F64(w.SeqProb).U64(w.SeqStride)
	h = h.F64(w.HotFraction).F64(w.HotRegion)
	h = h.F64(w.RMWFraction)
	h = h.F64(w.BurstProb).Int(w.BurstLen).F64(w.BurstWriteFrac)
	h = h.Int(w.Window)
	return h
}

// hashTuning folds every field of the core tuning block.
func hashTuning(h fnv.Hash, t core.Tuning) fnv.Hash {
	h = h.Str("tuning")
	h = h.Int(t.VaultQueueDepth).Int(t.VaultMaxInflight).Int(t.InternalBandwidthX)
	h = h.I64(t.SwitchBandwidthBps).I64(t.IfaceSwitchBandwidthBps)
	h = h.Int(t.InterposerBandwidthX).I64(int64(t.InterposerSerDes))
	h = h.F64(t.ShortcutHi).F64(t.ShortcutLo).Int(t.ShortcutWindow)
	h = h.Int(t.NVMMaxInflight).Int(t.MetaCubeGroup).Int(t.WavefrontSize)
	h = h.I64(t.WriteDemotion).Bool(t.NoVCPriority)
	return h
}

// hashFault folds the fault scenario (nil-able), including every
// scheduled kill.
func hashFault(h fnv.Hash, f *fault.Config) fnv.Hash {
	h = h.Str("fault").Bool(f != nil)
	if f == nil {
		return h
	}
	h = h.U64(f.Seed).F64(f.LinkBER).Int(f.MaxRetries).I64(int64(f.RetryBackoff))
	h = h.Str("killlinks").Int(len(f.KillLinks))
	for _, k := range f.KillLinks {
		h = h.Int(k.Edge).I64(int64(k.At))
	}
	h = h.Str("killcubes").Int(len(f.KillCubes))
	for _, k := range f.KillCubes {
		h = h.U64(uint64(k.Node)).I64(int64(k.At)).Bool(k.Full)
	}
	h = h.Str("lanefails").Int(len(f.LaneFails))
	for _, k := range f.LaneFails {
		h = h.Int(k.Edge).I64(int64(k.At))
	}
	h = h.Str("repairlinks").Int(len(f.RepairLinks))
	for _, r := range f.RepairLinks {
		h = h.Int(r.Edge).I64(int64(r.At))
	}
	h = h.Str("repaircubes").Int(len(f.RepairCubes))
	for _, r := range f.RepairCubes {
		h = h.U64(uint64(r.Node)).I64(int64(r.At))
	}
	h = h.Str("laneflaps").Int(len(f.LaneFlaps))
	for _, fl := range f.LaneFlaps {
		h = h.Int(fl.Edge).I64(int64(fl.Down)).I64(int64(fl.Up))
	}
	h = h.I64(int64(f.RetrainWindow))
	h = h.Bool(f.Watchdog).I64(int64(f.WatchdogInterval)).Int(f.WatchdogStale)
	return h
}
