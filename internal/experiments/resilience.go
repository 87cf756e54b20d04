package experiments

import (
	"fmt"

	"memnet/internal/arb"
	"memnet/internal/config"
	"memnet/internal/fault"
	"memnet/internal/topology"
)

// resilienceBERs are the swept per-bit error rates. A modern SerDes
// lane delivers raw BERs around 1e-12; the sweep pushes orders of
// magnitude past that to expose where each topology's retry overhead
// becomes visible in execution time.
var resilienceBERs = []float64{1e-7, 5e-7, 1e-6, 5e-6}

// Resilience is an extension experiment (Fig. 4-style, not in the
// paper): execution-time slowdown under increasing link error rates for
// each all-DRAM topology on KMEANS. Every corrupted transmission costs a
// retry round-trip out of the link's retry buffer, so the slowdown
// tracks each topology's traffic concentration — chains retransmit on
// the hot host link, trees spread the exposure.
//
// The baselines are ordinary runs from the Runner's memo, shared with
// the figure sweeps. Each faulty run is needed once, so it goes straight
// to the Sim backend; a campaign cache, which fingerprints the fault
// config, still covers it.
func (r *Runner) Resilience() (*Table, error) {
	wl := r.Opts.kmeans()
	topos := []topology.Kind{topology.Chain, topology.Ring, topology.Tree, topology.SkipList}

	cols := make([]string, 0, len(resilienceBERs))
	for _, ber := range resilienceBERs {
		cols = append(cols, fmt.Sprintf("BER %.0e", ber))
	}
	t := &Table{
		ID:      "resilience",
		Title:   "Slowdown under link errors (" + wl.Name + ", 100% DRAM, retry-on-CRC)",
		Columns: cols,
		Unit:    "% slowdown",
	}
	for _, topo := range topos {
		cfg := MNConfig{Topo: topo, DRAMFraction: 1.0, Placement: config.NVMLast, Arb: arb.RoundRobin}
		base, err := r.Run(r.params(cfg, wl))
		if err != nil {
			return nil, fmt.Errorf("resilience %s baseline: %w", cfg.Label(), err)
		}
		vals := make([]float64, 0, len(resilienceBERs))
		for _, ber := range resilienceBERs {
			p := r.params(cfg, wl)
			p.Fault = &fault.Config{Seed: r.Opts.Seed, LinkBER: ber}
			res, err := r.simulate(p)
			if err != nil {
				return nil, fmt.Errorf("resilience %s BER %.0e: %w", cfg.Label(), ber, err)
			}
			vals = append(vals, (float64(res.FinishTime)/float64(base.FinishTime)-1)*100)
		}
		t.Rows = append(t.Rows, Row{Label: cfg.Label(), Values: vals})
	}
	return t, nil
}
