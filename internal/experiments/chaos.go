package experiments

import (
	"fmt"

	"memnet/internal/arb"
	"memnet/internal/config"
	"memnet/internal/core"
	"memnet/internal/fault"
	"memnet/internal/sim"
	"memnet/internal/topology"
	"memnet/internal/workload"
)

// chaosTopos are the fabrics the chaos harness validates. The schedule
// generator adapts to each one's redundancy: chains and trees get no
// link kills (no severable edge), rings and skip lists do.
var chaosTopos = []topology.Kind{
	topology.Chain, topology.Ring, topology.Tree, topology.SkipList, topology.MetaCube,
}

// chaosSpec derives the seeded schedule request for one run. The
// horizon is a pure function of the options (about half the
// injection-limited finish time), so the generated schedule — and
// therefore the campaign fingerprint — is identical whether the run is
// simulated or served from the cache.
func chaosSpec(opts Options, wl workload.Spec) fault.ChaosSpec {
	return fault.ChaosSpec{
		Seed:      opts.Seed,
		Horizon:   sim.Time(opts.Transactions) * wl.MeanGap / 2,
		LinkKills: 2, CubeKills: 2, LaneFlaps: 2,
		LinkBER:    1e-7,
		MaxRetries: 0, // retry forever: conservation means completion
	}
}

// Chaos is the fault/recovery validation harness (`mnexp -exp chaos`,
// not in the paper): a seeded random kill/repair/flap schedule runs
// against every topology and a set of machine-checked invariants —
// transaction conservation, zero drops, every scheduled fault applied
// and repaired, byte-identical Results on a re-run with the same seed,
// no watchdog trip, and measurable route-back (post-repair traffic on
// healed links) — turns any regression in the self-healing path into a
// table-generation error. The reported rows summarize what each fabric
// absorbed and what the outages cost relative to the healthy baseline.
func (r *Runner) Chaos() (*Table, error) {
	wl := r.Opts.kmeans()
	t := &Table{
		ID:    "chaos",
		Title: "Chaos validation: seeded kill/repair/flap schedules (" + wl.Name + ", 100% DRAM)",
		Columns: []string{
			"link kills", "cube kills", "lane flaps",
			"rerouted", "bounced+rehomed", "healed Mbit", "slowdown",
		},
		Unit: "counts; slowdown %",
	}
	for _, topo := range chaosTopos {
		cfg := MNConfig{Topo: topo, DRAMFraction: 1.0, Placement: config.NVMLast, Arb: arb.RoundRobin}
		base, err := r.Run(r.params(cfg, wl))
		if err != nil {
			return nil, fmt.Errorf("chaos %s baseline: %w", cfg.Label(), err)
		}
		p := r.params(cfg, wl)
		fcfg, err := chaosFault(p, r.Opts, wl)
		if err != nil {
			return nil, fmt.Errorf("chaos %s: %w", cfg.Label(), err)
		}
		p.Fault = &fcfg
		res, err := r.simulate(p)
		if err != nil {
			return nil, fmt.Errorf("chaos %s: %w", cfg.Label(), err)
		}
		// The replay bypasses Sim: a cache backend would serve it the
		// entry the first run just wrote, and the check would compare a
		// result with itself.
		replay, err := core.Simulate(p)
		if err != nil {
			return nil, fmt.Errorf("chaos %s replay: %w", cfg.Label(), err)
		}
		if err := checkChaos(p, fcfg, res, replay); err != nil {
			return nil, fmt.Errorf("chaos %s: %w", cfg.Label(), err)
		}
		f := res.Fault
		t.Rows = append(t.Rows, Row{Label: cfg.Label(), Values: []float64{
			float64(f.LinksKilled), float64(f.CubesKilled), float64(f.LaneFails),
			float64(f.Rerouted), float64(f.Bounced + f.Rehomed),
			float64(f.HealedBits) / 1e6,
			(float64(res.FinishTime)/float64(base.FinishTime) - 1) * 100,
		}})
	}
	return t, nil
}

// chaosFault generates the validated schedule for one configuration
// over the run's own graph (core.NetworkOf), so edge indices line up.
func chaosFault(p core.Params, opts Options, wl workload.Spec) (fault.Config, error) {
	_, g, err := core.NetworkOf(&p)
	if err != nil {
		return fault.Config{}, err
	}
	return fault.Chaos(g, chaosSpec(opts, wl))
}

// checkChaos enforces the harness invariants on one faulty run. The
// fault-counter checks apply only when some fault fired (Fault.Any());
// conservation and determinism hold for every run.
func checkChaos(p core.Params, fcfg fault.Config, res, replay core.Results) error {
	if res != replay {
		return fmt.Errorf("nondeterministic: identical seeds produced different Results\n first: %#v\nsecond: %#v", res, replay)
	}
	if res.Transactions != p.Transactions {
		return fmt.Errorf("conservation: %d of %d transactions completed", res.Transactions, p.Transactions)
	}
	f := res.Fault
	if !f.Any() {
		return nil
	}
	if f.Dropped != 0 {
		return fmt.Errorf("conservation: %d packets dropped with MaxRetries=0", f.Dropped)
	}
	type want struct {
		name      string
		got, want uint64
	}
	for _, w := range []want{
		{"links killed", f.LinksKilled, uint64(len(fcfg.KillLinks))},
		{"links repaired", f.LinksRepaired, uint64(len(fcfg.RepairLinks))},
		{"cubes killed", f.CubesKilled, uint64(len(fcfg.KillCubes))},
		{"cubes repaired", f.CubesRepaired, uint64(len(fcfg.RepairCubes))},
		{"lanes flapped down", f.LaneFails, uint64(len(fcfg.LaneFlaps))},
		{"lanes flapped up", f.LaneRepairs, uint64(len(fcfg.LaneFlaps))},
	} {
		if w.got != w.want {
			return fmt.Errorf("%s: %d applied, %d scheduled", w.name, w.got, w.want)
		}
	}
	if f.LinksRepaired > 0 && f.HealedBits == 0 {
		return fmt.Errorf("route-back: %d links repaired but no traffic on healed links", f.LinksRepaired)
	}
	return nil
}
