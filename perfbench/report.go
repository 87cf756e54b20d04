package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"slices"
	"sort"
	"strings"
)

// Schema identifies the report format written by -out and read by
// -compare and -check.
const Schema = "memnet/bench/v2"

// metric is one reported number. Bound is the share of the parent's
// median by which an end-to-end metric may get worse before a change
// counts as a regression; layer metrics have none.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd lists what a user of the simulator sees, all in host time.
// BENCHMARK.json mirrors this table (a test pins the two together). The
// bounds are sized to the spread measured across ten seeded runs on a
// shared 2-CPU container: host time there swings by up to half for
// minutes at a time, so the time metrics get the largest bound;
// allocation counts are steady to about 1%, and a pass's peak resident
// set to about 4%.
var endToEnd = []metric{
	{"wall_s", "s", "lower", 0.25},
	{"sim_txn_per_s", "1/s", "higher", 0.25},
	{"events_per_s", "1/s", "higher", 0.25},
	{"cpu_s", "s", "lower", 0.25},
	{"allocs_per_txn", "count", "lower", 0.05},
	{"bytes_per_txn", "B", "lower", 0.05},
	{"max_rss_mb", "MB", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// layerMetric is a per-layer number plus the end-to-end metric and the
// workload it should move: written down before anything is measured, so
// a change to one layer names where its effect must show.
type layerMetric struct {
	metric
	Moves    string `json:"moves"`
	Workload string `json:"workload"`
}

// perLayer lists the layer metrics every traced run emits (the
// per_layer table of BENCHMARK.json, in the same order).
var perLayer = []layerMetric{
	{metric{Name: "sim.ns_per_event", Unit: "ns", Better: "lower"}, "events_per_s", "tree-steady"},
	{metric{Name: "router.ns_per_forward", Unit: "ns", Better: "lower"}, "sim_txn_per_s", "tree-steady"},
	{metric{Name: "router.allocs_per_forward", Unit: "count", Better: "lower"}, "allocs_per_txn", "tree-steady"},
	{metric{Name: "link.ns_per_packet", Unit: "ns", Better: "lower"}, "sim_txn_per_s", "tree-steady"},
	{metric{Name: "vault.ns_per_access", Unit: "ns", Better: "lower"}, "wall_s", "skiplist-nvm-chaos"},
	{metric{Name: "host.ns_per_txn", Unit: "ns", Better: "lower"}, "sim_txn_per_s", "tree-steady"},
	{metric{Name: "workload.ns_per_tx", Unit: "ns", Better: "lower"}, "sim_txn_per_s", "tree-steady"},
	{metric{Name: "packet.ns_per_getput", Unit: "ns", Better: "lower"}, "sim_txn_per_s", "tree-steady"},
	{metric{Name: "scenario.decode_us", Unit: "us", Better: "lower"}, "setup_s", "skiplist-nvm-chaos"},
	{metric{Name: "topology.build_us", Unit: "us", Better: "lower"}, "setup_s", "figs-quick"},
	{metric{Name: "core.build_us", Unit: "us", Better: "lower"}, "setup_s", "figs-quick"},
	{metric{Name: "core.build_allocs", Unit: "count", Better: "lower"}, "setup_s", "figs-quick"},
	{metric{Name: "fanout.par_eff", Unit: "frac", Better: "higher"}, "wall_s", "figs-quick"},
	{metric{Name: "runtime.gc_cpu_frac", Unit: "frac", Better: "lower"}, "wall_s", "tree-steady"},
	{metric{Name: "runtime.gc_per_mtxn", Unit: "1/Mtxn", Better: "lower"}, "wall_s", "tree-steady"},
	{metric{Name: "sim.cpu_share", Unit: "frac", Better: "lower"}, "events_per_s", "tree-steady"},
	{metric{Name: "link.cpu_share", Unit: "frac", Better: "lower"}, "sim_txn_per_s", "tree-steady"},
	{metric{Name: "router.cpu_share", Unit: "frac", Better: "lower"}, "sim_txn_per_s", "tree-steady"},
	{metric{Name: "vault.cpu_share", Unit: "frac", Better: "lower"}, "wall_s", "skiplist-nvm-chaos"},
	{metric{Name: "host.cpu_share", Unit: "frac", Better: "lower"}, "sim_txn_per_s", "tree-steady"},
	{metric{Name: "packet.cpu_share", Unit: "frac", Better: "lower"}, "sim_txn_per_s", "tree-steady"},
	{metric{Name: "core.cpu_share", Unit: "frac", Better: "lower"}, "setup_s", "figs-quick"},
	{metric{Name: "runtime.cpu_share", Unit: "frac", Better: "lower"}, "allocs_per_txn", "tree-steady"},
	{metric{Name: "bench.trace_overhead_frac", Unit: "frac", Better: "lower"}, "wall_s", "tree-steady"},
}

// dist summarizes one end-to-end metric over a run's timed passes.
type dist struct {
	Unit    string    `json:"unit"`
	Median  float64   `json:"median"`
	P25     float64   `json:"p25"`
	P75     float64   `json:"p75"`
	Min     float64   `json:"min"`
	Max     float64   `json:"max"`
	N       int       `json:"n"`
	Samples []float64 `json:"samples"`
}

// value is one layer metric.
type value struct {
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
}

// workloadReport is everything measured on one workload. Attempted
// counts passes (warm-up, cross-check, timed and traced); Failed counts
// those that returned an error or failed an output check.
type workloadReport struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	EndToEnd  map[string]dist  `json:"end_to_end,omitempty"`
	PerLayer  map[string]value `json:"per_layer,omitempty"`
	// Sim holds simulated-clock and model statistics of the warm-up
	// pass. They are exact: a change that only speeds up the simulator
	// must leave every one identical.
	Sim map[string]float64 `json:"sim,omitempty"`
}

// merge folds o (the same workload's other run mode) into r.
func (r *workloadReport) merge(o *workloadReport) {
	r.Correct = r.Correct && o.Correct
	r.Attempted += o.Attempted
	r.Failed += o.Failed
	if o.EndToEnd != nil {
		r.EndToEnd = o.EndToEnd
	}
	if o.PerLayer != nil {
		r.PerLayer = o.PerLayer
	}
	if o.Sim != nil {
		r.Sim = o.Sim
	}
}

// report is the -out file. Components holds the layer
// microbenchmarks, which do not depend on the workload: a full run
// measures them once, not in each workload's traced run.
type report struct {
	Schema     string                     `json:"schema"`
	Go         string                     `json:"go"`
	CPUs       int                        `json:"cpus"`
	GOMAXPROCS int                        `json:"gomaxprocs"`
	Workers    int                        `json:"workers"`
	Seed       uint64                     `json:"seed"`
	Seconds    int                        `json:"seconds"`
	Workloads  map[string]*workloadReport `json:"workloads"`
	Components map[string]value           `json:"components,omitempty"`
}

// benchmarkFile is BENCHMARK.json, the benchmark's definition.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metric `json:"end_to_end"`
	PerLayer []metric `json:"per_layer"`
}

// loadBenchmark reads BENCHMARK.json and checks it against the format's
// limits and against the tables this program measures by. Every run
// starts with it, so an edit to either side that breaks the pairing
// fails the next run instead of reporting metrics the file does not
// name.
func loadBenchmark(path string) (benchmarkFile, error) {
	var b benchmarkFile
	data, err := os.ReadFile(path)
	if err != nil {
		return b, err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		return b, fmt.Errorf("%s: %w", path, err)
	}
	var errs []error
	bad := func(format string, args ...any) { errs = append(errs, fmt.Errorf(format, args...)) }
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) || seen[n] {
			bad("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if len(b.Command) == 0 || len(b.Paths) == 0 {
		bad("command and paths must not be empty")
	}
	if b.RunSeconds != defaultSeconds {
		bad("run_seconds %d, but a full run budgets %d s per workload run", b.RunSeconds, defaultSeconds)
	}
	if len(b.Workloads) < 2 || len(b.Workloads) > 8 {
		bad("%d workloads, want 2 to 8", len(b.Workloads))
	}
	var names []string
	for _, w := range b.Workloads {
		name(w.Name)
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			bad("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if !slices.Equal(names, workloadNames()) {
		bad("workloads %v, program has %v", names, workloadNames())
	}
	if len(b.EndToEnd) < 1 || len(b.EndToEnd) > 16 || len(b.PerLayer) < 1 || len(b.PerLayer) > 128 {
		bad("%d end-to-end and %d layer metrics, want 1-16 and 1-128", len(b.EndToEnd), len(b.PerLayer))
	}
	for _, m := range append(slices.Clone(b.EndToEnd), b.PerLayer...) {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			bad("metric %s: unit %q, better %q", m.Name, m.Unit, m.Better)
		}
	}
	for _, m := range b.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			bad("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if !slices.Equal(b.EndToEnd, endToEnd) {
		bad("end_to_end differs from the program's table")
	}
	var layers []metric
	for _, m := range perLayer {
		layers = append(layers, m.metric)
	}
	if !slices.Equal(b.PerLayer, layers) {
		bad("per_layer differs from the program's table")
	}
	e2e := map[string]bool{}
	for _, m := range endToEnd {
		e2e[m.Name] = true
	}
	if !e2e["setup_s"] {
		bad("no setup_s metric")
	}
	for _, m := range perLayer {
		if !e2e[m.Moves] || !seen[m.Workload] {
			bad("%s moves %s on %s: no such end-to-end metric or workload", m.Name, m.Moves, m.Workload)
		}
	}
	if err := errors.Join(errs...); err != nil {
		return b, fmt.Errorf("%s: %w", path, err)
	}
	return b, nil
}

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != Schema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, r.Schema, Schema)
	}
	return &r, nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// quartiles returns the first quartile, median and third quartile of
// xs by the method of Python's statistics.quantiles(xs, n=4) (its
// default "exclusive" method), so spreads read the same here as in any
// script that checks a report.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

func newDist(unit string, xs []float64) dist {
	q1, q2, q3 := quartiles(xs)
	d := dist{Unit: unit, Median: q2, P25: q1, P75: q3, N: len(xs), Samples: xs}
	if len(xs) > 0 {
		d.Min, d.Max = slices.Min(xs), slices.Max(xs)
	}
	return d
}

// spread is the quartile distance as a share of the median.
func (d dist) spread() float64 {
	if d.Median == 0 {
		return math.Inf(1)
	}
	return (d.P75 - d.P25) / math.Abs(d.Median)
}

// Verdicts of one metric on one workload.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// judge compares the change's samples b with the parent's a. The change
// regresses when its median is worse than the parent's by more than the
// bound, as a share of the parent's median. A metric whose quartile
// spread on either side exceeds its bound is unresolved, unless every
// run of the change reads better than every run of the parent.
func judge(m metric, a, b dist) string {
	worse := (b.Median - a.Median) / math.Abs(a.Median)
	allBetter := b.Max < a.Min
	if m.Better == "higher" {
		worse = -worse
		allBetter = b.Min > a.Max
	}
	switch {
	case allBetter:
		return verdictOK
	case math.Max(a.spread(), b.spread()) > m.Bound:
		return verdictUnresolved
	case worse > m.Bound:
		return verdictRegressed
	}
	return verdictOK
}

// compareReports prints one row per workload and end-to-end metric, then
// any simulated statistic that differs, and reports whether the change
// passes: no regression, no failed operation, identical simulation.
func compareReports(w io.Writer, parent, change *report) bool {
	ok := true
	fmt.Fprintf(w, "%-20s %-15s %14s %14s %9s %6s  %s\n",
		"workload", "metric", "parent", "change", "delta", "bound", "verdict")
	for _, name := range workloadNames() {
		a, b := parent.Workloads[name], change.Workloads[name]
		if a == nil || b == nil {
			continue
		}
		if b.Failed > 0 || !b.Correct {
			fmt.Fprintf(w, "%-20s fail_frac %d/%d: outputs failed their checks\n", name, b.Failed, b.Attempted)
			ok = false
		}
		for _, m := range endToEnd {
			da, okA := a.EndToEnd[m.Name]
			db, okB := b.EndToEnd[m.Name]
			if !okA || !okB {
				continue
			}
			v := judge(m, da, db)
			if v == verdictRegressed {
				ok = false
			}
			delta := (db.Median - da.Median) / math.Abs(da.Median)
			fmt.Fprintf(w, "%-20s %-15s %14.6g %14.6g %+8.1f%% %5.0f%%  %s\n",
				name, m.Name, da.Median, db.Median, delta*100, m.Bound*100, v)
		}
		for _, k := range sortedKeys(a.Sim) {
			if bv, has := b.Sim[k]; has && bv != a.Sim[k] {
				fmt.Fprintf(w, "%-20s %-15s %14.6g %14.6g  simulated result differs\n", name, k, a.Sim[k], bv)
				ok = false
			}
		}
	}
	return ok
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// printReport writes the human-readable table of a full run.
func printReport(w io.Writer, r *report) {
	fmt.Fprintf(w, "perfbench %s  cpus=%d gomaxprocs=%d workers=%d seed=%d seconds=%d\n",
		r.Go, r.CPUs, r.GOMAXPROCS, r.Workers, r.Seed, r.Seconds)
	for _, name := range workloadNames() {
		wr := r.Workloads[name]
		if wr == nil {
			continue
		}
		fmt.Fprintf(w, "\n%s  correct=%v fail_frac=%d/%d\n", name, wr.Correct, wr.Failed, wr.Attempted)
		for _, m := range endToEnd {
			if d, ok := wr.EndToEnd[m.Name]; ok {
				fmt.Fprintf(w, "  %-26s %14.6g %-6s p25=%-12.6g p75=%-12.6g min=%-12.6g max=%-12.6g n=%d\n",
					m.Name, d.Median, d.Unit, d.P25, d.P75, d.Min, d.Max, d.N)
			}
		}
		for _, m := range perLayer {
			if v, ok := wr.PerLayer[m.Name]; ok {
				fmt.Fprintf(w, "  %-26s %14.6g %s\n", m.Name, v.Value, v.Unit)
			}
		}
		for _, k := range sortedKeys(wr.Sim) {
			fmt.Fprintf(w, "  %-26s %14.10g (sim, exact)\n", k, wr.Sim[k])
		}
	}
	if len(r.Components) > 0 {
		fmt.Fprintf(w, "\nlayer microbenchmarks\n")
		for _, k := range sortedKeys(r.Components) {
			fmt.Fprintf(w, "  %-26s %14.6g %s\n", k, r.Components[k].Value, r.Components[k].Unit)
		}
	}
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames(), ", "))
}
