package experiments

import (
	"fmt"

	"memnet/internal/core"
	"memnet/internal/scenario"
	"memnet/internal/workload"
)

// Scenario evaluates one declarative scenario document across the
// workload suite and reports the headline metrics per workload: finish
// time, mean latency, mean response hops, and total dynamic energy.
// When the document embeds its own workload block, the table has that
// single column instead of the suite. Runs flow through the pluggable
// Sim backend, so a cache-backed Runner serves repeated scenario
// evaluations from disk like any figure.
func (r *Runner) Scenario(spec *scenario.Spec) (*Table, error) {
	// Normalize a clone: defaults materialize (workload name, node
	// techs) and invalid documents fail here with a path-addressed
	// error instead of mid-table. The caller's spec stays untouched.
	spec = spec.Clone()
	if err := spec.Normalize(); err != nil {
		return nil, err
	}
	fc, err := core.ScenarioFault(spec)
	if err != nil {
		return nil, err
	}

	suite := r.Opts.suite()
	if spec.Workload != nil {
		wl, _, err := spec.WorkloadSpec()
		if err != nil {
			return nil, err
		}
		suite = []workload.Spec{wl}
	}

	name := spec.Name
	if name == "" {
		name = "scenario"
	}
	tab := &Table{
		ID:      "scenario",
		Title:   fmt.Sprintf("Scenario %s: headline metrics per workload", name),
		Columns: make([]string, 0, len(suite)),
		Rows: []Row{
			{Label: "finish time (us)"},
			{Label: "mean latency (ns)"},
			{Label: "mean hops"},
			{Label: "energy (uJ)"},
		},
	}
	for _, wl := range suite {
		p := core.Params{
			Sys:          r.Sys,
			Workload:     wl,
			Transactions: r.Opts.Transactions,
			Seed:         r.Opts.Seed,
			Scenario:     spec,
			Fault:        fc,
		}
		res, err := r.simulate(p)
		if err != nil {
			return nil, fmt.Errorf("%s/%s: %w", name, wl.Name, err)
		}
		tab.Columns = append(tab.Columns, wl.Name)
		tab.Rows[0].Values = append(tab.Rows[0].Values, float64(res.FinishTime)/1e6)
		tab.Rows[1].Values = append(tab.Rows[1].Values, float64(res.MeanLatency)/1e3)
		tab.Rows[2].Values = append(tab.Rows[2].Values, res.MeanHops)
		tab.Rows[3].Values = append(tab.Rows[3].Values, res.Energy.TotalPJ()/1e6)
	}
	return tab, nil
}
