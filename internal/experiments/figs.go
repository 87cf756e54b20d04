package experiments

import (
	"memnet/internal/arb"
	"memnet/internal/config"
	"memnet/internal/core"
	"memnet/internal/topology"
	"memnet/internal/workload"
)

// baselineChain is the 100%-Chain round-robin configuration every
// figure's normalization refers to.
var baselineChain = MNConfig{
	Topo: topology.Chain, DRAMFraction: 1.0,
	Placement: config.NVMLast, Arb: arb.RoundRobin,
}

// proposed are the topologies the paper proposes and evaluates against
// the tree: tree, skip list and MetaCube.
var proposed = []topology.Kind{topology.Tree, topology.SkipList, topology.MetaCube}

// mixes returns every topology of topos at every DRAM:NVM ratio,
// ratio-major, with arbitration a.
func mixes(topos []topology.Kind, a arb.Kind) []MNConfig {
	var cfgs []MNConfig
	for _, rt := range ratios {
		for _, topo := range topos {
			cfgs = append(cfgs, MNConfig{Topo: topo, DRAMFraction: rt.frac, Placement: rt.place, Arb: a})
		}
	}
	return cfgs
}

// Fig4 regenerates Fig. 4: speedup of all-DRAM ring and tree networks
// over the all-DRAM chain, per workload, round-robin arbitration.
func (r *Runner) Fig4() (*Table, error) {
	cfgs := []MNConfig{
		{Topo: topology.Ring, DRAMFraction: 1, Arb: arb.RoundRobin},
		{Topo: topology.Tree, DRAMFraction: 1, Arb: arb.RoundRobin},
	}
	return r.speedupTable("fig4",
		"Fig. 4: speedup of DRAM memory networks over chain topology",
		cfgs, func(MNConfig) MNConfig { return baselineChain })
}

// Fig5 regenerates Fig. 5: the to-memory / in-memory / from-memory
// latency breakdown for chain, ring, and tree all-DRAM networks, with
// every component normalized to the chain's total latency for that
// workload (the paper's presentation). Rows are "<Topo>/<component>".
func (r *Runner) Fig5() (*Table, error) {
	suite := r.Opts.suite()
	fig5Cfgs := []MNConfig{
		baselineChain,
		{Topo: topology.Ring, DRAMFraction: 1, Arb: arb.RoundRobin},
		{Topo: topology.Tree, DRAMFraction: 1, Arb: arb.RoundRobin},
	}
	if err := r.Warm(r.grid(fig5Cfgs, suite, nil)); err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "fig5",
		Title:   "Fig. 5: memory request latency breakdown relative to chain",
		Columns: workloadColumns(suite)[:len(suite)], // no average column
		Unit:    "fraction of chain total latency",
	}
	topos := []topology.Kind{topology.Chain, topology.Ring, topology.Tree}
	comps := []string{"to-memory", "in-memory", "from-memory"}
	rows := make(map[string][]float64)
	for _, wl := range suite {
		base, err := r.Run(r.params(baselineChain, wl))
		if err != nil {
			return nil, err
		}
		baseTotal := float64(base.Breakdown.Total())
		for _, topo := range topos {
			cfg := MNConfig{Topo: topo, DRAMFraction: 1, Arb: arb.RoundRobin}
			res, err := r.Run(r.params(cfg, wl))
			if err != nil {
				return nil, err
			}
			parts := []float64{
				float64(res.Breakdown.ToMem) / baseTotal,
				float64(res.Breakdown.InMem) / baseTotal,
				float64(res.Breakdown.FromMem) / baseTotal,
			}
			for ci, c := range comps {
				label := topo.String() + "/" + c
				rows[label] = append(rows[label], parts[ci])
			}
		}
	}
	for _, topo := range topos {
		for _, c := range comps {
			label := topo.String() + "/" + c
			t.Rows = append(t.Rows, Row{Label: label, Values: rows[label]})
		}
	}
	return t, nil
}

// Fig7 regenerates Fig. 7: the tree topology with DRAM:NVM ratios 100%,
// 50% (NVM-L), 50% (NVM-F) and 0%, as speedup over the 100% chain.
func (r *Runner) Fig7() (*Table, error) {
	return r.speedupTable("fig7",
		"Fig. 7: tree topology with different DRAM:NVM ratios vs 100% chain",
		mixes([]topology.Kind{topology.Tree}, arb.RoundRobin),
		func(MNConfig) MNConfig { return baselineChain })
}

// Fig10 regenerates Fig. 10: the naive distance-based arbitration's
// speedup over round-robin on the twelve baseline configurations
// ({chain, ring, tree} x {100%, 50% NVM-L, 50% NVM-F, 0%}).
func (r *Runner) Fig10() (*Table, error) {
	var cfgs []MNConfig
	for _, topo := range []topology.Kind{topology.Chain, topology.Ring, topology.Tree} {
		for _, rt := range ratios {
			cfgs = append(cfgs, MNConfig{
				Topo: topo, DRAMFraction: rt.frac,
				Placement: rt.place, Arb: arb.Distance,
			})
		}
	}
	return r.speedupTable("fig10",
		"Fig. 10: distance-based arbitration speedup over round-robin",
		cfgs, func(c MNConfig) MNConfig {
			c.Arb = arb.RoundRobin
			return c
		})
}

// Fig11 regenerates Fig. 11: tree vs skip-list vs MetaCube across the
// NVM ratios, round-robin arbitration, normalized to the 100% chain.
func (r *Runner) Fig11() (*Table, error) {
	return r.speedupTable("fig11",
		"Fig. 11: skip-list and MetaCube vs tree (round-robin arbitration), vs 100% chain",
		mixes(proposed, arb.RoundRobin), func(MNConfig) MNConfig { return baselineChain })
}

// Fig12 regenerates Fig. 12: all techniques combined — the augmented
// distance-based arbitration applied to tree, skip-list, and MetaCube —
// normalized to the 100% chain with round-robin.
func (r *Runner) Fig12() (*Table, error) {
	return r.speedupTable("fig12",
		"Fig. 12: all techniques combined (augmented distance arbitration), vs 100% chain",
		mixes(proposed, arb.DistanceAugmented), func(MNConfig) MNConfig { return baselineChain })
}

// fourPorts is Fig. 13's system: the host drops from eight memory ports
// to four at fixed 2TB capacity, so each port serves twice the cubes.
// It also processes twice the per-port trace: the system's total work
// stays fixed, so the finish-time ratio is the system-throughput ratio.
func fourPorts(p core.Params) core.Params {
	p.Sys.Ports = 4
	p.Transactions *= 2
	return p
}

// halfCapacity is Fig. 14's 1TB system: the cube count held, each cube
// with half the capacity and half the banks.
func halfCapacity(p core.Params) core.Params {
	p.Sys.TotalCapacity /= 2
	p.Sys.DRAMCubeCapacity /= 2
	p.Sys.NVMCubeCapacity /= 2
	p.Sys.BanksPerCube /= 2
	return p
}

// Fig13 regenerates Fig. 13: the performance change when the host drops
// from eight memory ports to four (fourPorts). The 8-port runs are
// Fig. 11's.
func (r *Runner) Fig13() (*Table, error) {
	suite := r.Opts.suite()
	cfgs := mixes(proposed, arb.RoundRobin)
	gains, err := r.gains(cfgs, suite, fourPorts)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "fig13",
		Title:   "Fig. 13: speedup of a 4-port system over the 8-port baseline (2TB)",
		Columns: workloadColumns(suite),
		Unit:    "% speedup (negative = degradation)",
	}
	for i, cfg := range cfgs {
		vals := make([]float64, 0, len(suite)+1)
		for _, g := range gains[i] {
			vals = append(vals, g*100)
		}
		vals = append(vals, mean(vals))
		t.Rows = append(t.Rows, Row{Label: cfg.Label(), Values: vals})
	}
	return t, nil
}

// Fig14 regenerates Fig. 14: average speedup when system capacity drops
// from 2TB to 1TB with the cube count held constant (halfCapacity), per
// configuration, averaged over the suite. The 2TB runs are Fig. 15's.
func (r *Runner) Fig14() (*Table, error) {
	suite := r.Opts.suite()
	cfgs := mixes(topology.Kinds, arb.RoundRobin)
	gains, err := r.gains(cfgs, suite, halfCapacity)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "fig14",
		Title:   "Fig. 14: average speedup moving from 2TB to 1TB (same cube count)",
		Columns: []string{"average"},
		Unit:    "% speedup",
	}
	for i, cfg := range cfgs {
		var sum float64
		for _, g := range gains[i] {
			sum += g
		}
		t.Rows = append(t.Rows, Row{
			Label:  cfg.Label(),
			Values: []float64{sum / float64(len(suite)) * 100},
		})
	}
	return t, nil
}

// gains runs every configuration of cfgs on every workload of suite on
// the base system and on the system edit makes, and returns, per
// configuration and workload, the base finish time over the edited
// one, minus one.
func (r *Runner) gains(cfgs []MNConfig, suite []workload.Spec, edit func(core.Params) core.Params) ([][]float64, error) {
	if err := r.Warm(r.grid(cfgs, suite, nil)); err != nil {
		return nil, err
	}
	if err := r.Warm(r.grid(cfgs, suite, edit)); err != nil {
		return nil, err
	}
	out := make([][]float64, len(cfgs))
	for i, cfg := range cfgs {
		for _, wl := range suite {
			base, err := r.Run(r.params(cfg, wl))
			if err != nil {
				return nil, err
			}
			alt, err := r.Run(edit(r.params(cfg, wl)))
			if err != nil {
				return nil, err
			}
			out[i] = append(out[i], float64(base.FinishTime)/float64(alt.FinishTime)-1)
		}
	}
	return out, nil
}

// Fig15 regenerates Fig. 15: the all-workload-average energy breakdown
// (network transport vs memory read vs memory write) for each
// configuration, normalized to the 100% chain's total energy.
func (r *Runner) Fig15() (*Table, error) {
	suite := r.Opts.suite()
	t := &Table{
		ID:      "fig15",
		Title:   "Fig. 15: energy breakdown relative to the 100%-C network",
		Columns: []string{"network", "read", "write", "total"},
		Unit:    "fraction of 100%-C total energy",
	}
	// The baseline, 100%-C, is the first of cfgs.
	cfgs := mixes(topology.Kinds, arb.RoundRobin)
	if err := r.Warm(r.grid(cfgs, suite, nil)); err != nil {
		return nil, err
	}
	// Baseline: average total energy of 100% chain across the suite.
	var baseTotal float64
	for _, wl := range suite {
		res, err := r.Run(r.params(baselineChain, wl))
		if err != nil {
			return nil, err
		}
		baseTotal += res.Energy.TotalPJ()
	}
	baseTotal /= float64(len(suite))

	for _, cfg := range cfgs {
		var net, rd, wr float64
		for _, wl := range suite {
			res, err := r.Run(r.params(cfg, wl))
			if err != nil {
				return nil, err
			}
			net += res.Energy.NetworkPJ
			rd += res.Energy.ReadPJ
			wr += res.Energy.WritePJ
		}
		n := float64(len(suite))
		net, rd, wr = net/n, rd/n, wr/n
		t.Rows = append(t.Rows, Row{
			Label:  cfg.Label(),
			Values: []float64{net / baseTotal, rd / baseTotal, wr / baseTotal, (net + rd + wr) / baseTotal},
		})
	}
	return t, nil
}

// Figure is one entry of the campaign's figure/table grid: an
// experiment id paired with the harness that regenerates it.
type Figure struct {
	// ID is the experiment's short name ("fig4", "mesh", ...), also the
	// Table.ID the harness returns.
	ID string
	// Fn regenerates the experiment's table.
	Fn func() (*Table, error)
}

// Figures returns every simulation-backed experiment of the campaign in
// the paper's presentation order. Table 1 and Table 2 are excluded:
// they are derived from the DDR bus model and the static configuration,
// with no simulation behind them. cmd/mnexp drives this list directly,
// so a new figure added here is automatically run, cached (-cache) and
// written to the campaign manifest.
func (r *Runner) Figures() []Figure {
	return []Figure{
		{"fig4", r.Fig4},
		{"fig5", r.Fig5},
		{"fig7", r.Fig7},
		{"fig10", r.Fig10},
		{"fig11", r.Fig11},
		{"fig12", r.Fig12},
		{"fig13", r.Fig13},
		{"fig14", r.Fig14},
		{"fig15", r.Fig15},
		{"mesh", r.ExtMesh},
		{"resilience", r.Resilience},
		{"chaos", r.Chaos},
	}
}

// ExtMesh is an extension experiment (not in the paper): the 2D mesh
// the paper rules out a priori, compared against the evaluated
// topologies on the all-DRAM system, normalized to the chain. The paper
// argues the mesh's average hop count exceeds the tree's no matter
// which cube attaches to the host (§3); this measures the consequence.
func (r *Runner) ExtMesh() (*Table, error) {
	var cfgs []MNConfig
	for _, topo := range []topology.Kind{topology.Ring, topology.Mesh,
		topology.Tree, topology.SkipList, topology.MetaCube} {
		cfgs = append(cfgs, MNConfig{Topo: topo, DRAMFraction: 1, Arb: arb.RoundRobin})
	}
	return r.speedupTable("mesh",
		"Extension: 2D mesh vs the paper's topologies (all-DRAM), vs 100% chain",
		cfgs, func(MNConfig) MNConfig { return baselineChain })
}
