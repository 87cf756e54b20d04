// Package experiments regenerates every table and figure of the paper's
// evaluation (see DESIGN.md's per-experiment index). Each figure is a
// function returning a Table whose rows/series mirror the paper's plot;
// cmd/mnexp prints them and bench_test.go wraps them as benchmarks.
package experiments

import (
	"fmt"
	"runtime"
	"slices"

	"memnet/internal/arb"
	"memnet/internal/config"
	"memnet/internal/core"
	"memnet/internal/fanout"
	"memnet/internal/topology"
	"memnet/internal/workload"
)

// Options controls experiment scale. The JSON form is embedded in
// campaign manifests; Parallel is excluded from it because worker count
// is a machine property, not an experiment input (results are
// bit-identical at any worker count).
type Options struct {
	// Transactions per simulation run.
	Transactions uint64 `json:"transactions"`
	// Seed for workload generation.
	Seed uint64 `json:"seed"`
	// Workloads restricts the suite (nil = all eight).
	Workloads []string `json:"workloads,omitempty"`
	// Parallel is the worker count for fanning independent simulation
	// runs across cores (each run is its own engine, so results are
	// bit-identical regardless of scheduling). Zero means GOMAXPROCS.
	Parallel int `json:"-"`
}

// DefaultOptions gives publication-scale runs.
func DefaultOptions() Options {
	return Options{Transactions: 20000, Seed: 1, Parallel: runtime.GOMAXPROCS(0)}
}

// QuickOptions gives fast runs for tests.
func QuickOptions() Options {
	return Options{Transactions: 2500, Seed: 1, Parallel: runtime.GOMAXPROCS(0)}
}

func (o Options) suite() []workload.Spec {
	all := workload.Suite()
	if len(o.Workloads) == 0 {
		return all
	}
	var out []workload.Spec
	for _, name := range o.Workloads {
		for _, s := range all {
			if s.Name == name {
				out = append(out, s)
			}
		}
	}
	return out
}

// kmeans returns KMEANS if the suite holds it, else the suite's first
// workload: the one the fault harnesses run.
func (o Options) kmeans() workload.Spec {
	suite := o.suite()
	for _, s := range suite {
		if s.Name == "KMEANS" {
			return s
		}
	}
	return suite[0]
}

// MNConfig identifies one evaluated memory-network configuration.
type MNConfig struct {
	// Topo is the per-port network topology.
	Topo topology.Kind
	// DRAMFraction of total capacity (1.0 = all DRAM).
	DRAMFraction float64
	// Placement positions NVM cubes in mixed networks.
	Placement config.Placement
	// Arb is the router arbitration policy.
	Arb arb.Kind
}

// Label renders the paper-style configuration name (without the
// arbitration, which figures state separately).
func (c MNConfig) Label() string {
	return core.ConfigLabel(c.Topo, c.DRAMFraction, c.Placement)
}

// ratios are the DRAM:NVM mixes every figure sweeps: 100%, 50% NVM-L,
// 50% NVM-F, 0%.
type ratio struct {
	frac  float64
	place config.Placement
}

var ratios = []ratio{
	{1.0, config.NVMLast},
	{0.5, config.NVMLast},
	{0.5, config.NVMFirst},
	{0.0, config.NVMLast},
}

// SimFunc executes one simulation run. It is the Runner's pluggable
// backend: the default is core.Simulate; internal/campaign substitutes
// a content-addressed-cache wrapper, and mnexp -spans-out a span
// collector. A SimFunc must be safe for concurrent calls (Warm invokes
// it from worker goroutines) and must be a pure function of its Params.
type SimFunc func(core.Params) (core.Results, error)

// Runner executes and memoizes simulation runs. Every run goes through
// one memo keyed by the complete run, so a run two figures share — Fig.
// 13's 8-port baselines are Fig. 11's runs, Fig. 14's 2 TB runs are
// Fig. 15's — is simulated once per Runner. It is not safe for
// concurrent use; experiments are run sequentially for determinism.
type Runner struct {
	// Opts is the experiment scale every run of this Runner shares.
	Opts Options
	// Sys is the base system configuration each run derives from.
	Sys config.System
	// Sim, when non-nil, replaces core.Simulate as the backend executing
	// each run (see SimFunc), so a cache or collector hook observes
	// every simulation of a campaign.
	Sim  SimFunc
	memo *memo
}

// memo holds a Runner's results. A key names its system and workload by
// index in systems and workloads: a map stores a key holding the 304-byte
// System out of line, one allocation per insert.
type memo struct {
	systems   []config.System
	workloads []workload.Spec
	runs      map[runKey]core.Results
}

func newMemo() *memo { return &memo{runs: make(map[runKey]core.Results)} }

// runKey is one complete run as params builds it and the figures edit
// it: system, workload, network, arbitration, length and seed.
type runKey struct {
	sys, wl    int
	topo       topology.Kind
	arb        arb.Kind
	txns, seed uint64
}

// key returns p's key, interning its system and workload.
func (m *memo) key(p *core.Params) runKey {
	return runKey{
		sys: intern(&m.systems, p.Sys), wl: intern(&m.workloads, p.Workload),
		topo: p.Topo, arb: p.Arb, txns: p.Transactions, seed: p.Seed,
	}
}

// intern returns v's index in *s, appending v when absent. A campaign
// meets a dozen systems and eight workloads, so a scan suffices.
func intern[T comparable](s *[]T, v T) int {
	for i, x := range *s {
		if x == v {
			return i
		}
	}
	*s = append(*s, v)
	return len(*s) - 1
}

// NewRunner returns a runner over the default Table 2 system.
func NewRunner(opts Options) *Runner {
	return &Runner{Opts: opts, Sys: config.Default(), memo: newMemo()}
}

// params assembles the core parameters for one pair.
func (r *Runner) params(cfg MNConfig, wl workload.Spec) core.Params {
	sys := r.Sys
	sys.DRAMFraction = cfg.DRAMFraction
	sys.Placement = cfg.Placement
	return core.Params{
		Sys:          sys,
		Topo:         cfg.Topo,
		Arb:          cfg.Arb,
		Workload:     wl,
		Transactions: r.Opts.Transactions,
		Seed:         r.Opts.Seed,
	}
}

// grid returns the run of every configuration of cfgs on every workload
// of suite, configuration-major, each passed through edit when non-nil.
func (r *Runner) grid(cfgs []MNConfig, suite []workload.Spec, edit func(core.Params) core.Params) []core.Params {
	runs := make([]core.Params, 0, len(cfgs)*len(suite))
	for _, cfg := range cfgs {
		for _, wl := range suite {
			p := r.params(cfg, wl)
			if edit != nil {
				p = edit(p)
			}
			runs = append(runs, p)
		}
	}
	return runs
}

// simulate executes one run through the pluggable backend (Sim if set,
// core.Simulate otherwise), bypassing the Runner's memoization.
func (r *Runner) simulate(p core.Params) (core.Results, error) {
	if r.Sim != nil {
		return r.Sim(p)
	}
	return core.Simulate(p)
}

// Run returns the results of one run, simulating it on a memo miss. p
// is a run params builds, possibly with its system, length or seed
// edited; its Tuning, Fault, Scenario and trace fields are not in the
// memo key and must be zero.
func (r *Runner) Run(p core.Params) (core.Results, error) {
	key := r.memo.key(&p)
	if _, ok := r.memo.runs[key]; !ok {
		if err := r.Warm([]core.Params{p}); err != nil {
			return core.Results{}, err
		}
	}
	return r.memo.runs[key], nil
}

// Warm executes every run of runs missing from the memo concurrently on
// Options.Parallel workers and memoizes the results. Each simulation is
// an independent engine, so parallel scheduling cannot change any
// result. The first failing run in runs' order wins, and no results are
// memoized when any run fails.
func (r *Runner) Warm(runs []core.Params) error {
	var todo []int
	seen := map[runKey]bool{}
	for i := range runs {
		k := r.memo.key(&runs[i])
		if _, ok := r.memo.runs[k]; ok || seen[k] {
			continue
		}
		seen[k] = true
		todo = append(todo, i)
	}
	results := make([]core.Results, len(todo))
	err := fanout.Run(len(todo), r.Opts.Parallel, func(i int) (core.Results, error) {
		p := runs[todo[i]]
		res, err := r.simulate(p)
		if err != nil {
			err = fmt.Errorf("%s/%s: %w", core.ConfigLabel(p.Topo, p.Sys.DRAMFraction, p.Sys.Placement), p.Workload.Name, err)
		}
		return res, err
	}, func(i int, res core.Results) error {
		results[i] = res
		return nil
	})
	if err != nil {
		return err
	}
	for i, ri := range todo {
		r.memo.runs[r.memo.key(&runs[ri])] = results[i]
	}
	return nil
}

// Table is a generic labeled grid: one row per configuration/series, one
// column per workload (plus optional trailing aggregate columns). The
// JSON form is the interchange format of campaign manifests
// (results/experiments.json) and the cmd/mndocs renderer.
type Table struct {
	// ID is the experiment's short name, e.g. "fig4".
	ID string `json:"id"`
	// Title is the paper-style caption printed above the table.
	Title string `json:"title"`
	// Columns are the value-column headers (usually workload names plus
	// a trailing aggregate).
	Columns []string `json:"columns"`
	// Rows are the labeled series in presentation order.
	Rows []Row `json:"rows"`
	// Unit annotates cell values, e.g. "% speedup" or "relative".
	Unit string `json:"unit,omitempty"`
}

// Row is one labeled series.
type Row struct {
	// Label names the series, e.g. "100%-T".
	Label string `json:"label"`
	// Values align with the Table's Columns.
	Values []float64 `json:"values"`
}

// Cell returns the value at (rowLabel, column), for tests.
func (t *Table) Cell(rowLabel, column string) (float64, bool) {
	ci := -1
	for i, c := range t.Columns {
		if c == column {
			ci = i
			break
		}
	}
	if ci < 0 {
		return 0, false
	}
	for _, row := range t.Rows {
		if row.Label == rowLabel && ci < len(row.Values) {
			return row.Values[ci], true
		}
	}
	return 0, false
}

// RowByLabel returns the named row, for tests.
func (t *Table) RowByLabel(label string) (Row, bool) {
	for _, row := range t.Rows {
		if row.Label == label {
			return row, true
		}
	}
	return Row{}, false
}

// mean returns the arithmetic mean of vals.
func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range vals {
		s += v
	}
	return s / float64(len(vals))
}

// workloadColumns returns suite names plus "average".
func workloadColumns(suite []workload.Spec) []string {
	cols := make([]string, 0, len(suite)+1)
	for _, s := range suite {
		cols = append(cols, s.Name)
	}
	return append(cols, "average")
}

// speedupTable builds the common figure shape: for each config, the
// percent speedup over a per-workload baseline (base execution time
// over config execution time, minus one), with a trailing average.
func (r *Runner) speedupTable(id, title string, cfgs []MNConfig, base func(MNConfig) MNConfig) (*Table, error) {
	suite := r.Opts.suite()
	warm := append([]MNConfig(nil), cfgs...)
	for _, cfg := range cfgs {
		if b := base(cfg); !slices.Contains(warm, b) {
			warm = append(warm, b)
		}
	}
	if err := r.Warm(r.grid(warm, suite, nil)); err != nil {
		return nil, err
	}
	t := &Table{ID: id, Title: title, Columns: workloadColumns(suite), Unit: "% speedup"}
	for _, cfg := range cfgs {
		vals := make([]float64, 0, len(suite)+1)
		for _, wl := range suite {
			a, err := r.Run(r.params(cfg, wl))
			if err != nil {
				return nil, err
			}
			b, err := r.Run(r.params(base(cfg), wl))
			if err != nil {
				return nil, err
			}
			vals = append(vals, (float64(b.FinishTime)/float64(a.FinishTime)-1)*100)
		}
		vals = append(vals, mean(vals))
		t.Rows = append(t.Rows, Row{Label: cfg.Label(), Values: vals})
	}
	return t, nil
}
