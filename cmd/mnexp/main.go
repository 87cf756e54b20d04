// Command mnexp regenerates the paper's tables and figures. Each
// experiment prints the same rows/series the paper reports (speedups
// over the 100% chain, latency breakdowns, energy splits, ...).
//
// Runs can be backed by a persistent content-addressed result cache
// (-cache): every simulation already present in the cache is served
// from disk, so interrupted campaigns resume and repeated invocations
// are free. Independent runs fan out over -shards worker goroutines.
//
// Examples:
//
//	mnexp                                  # run everything at publication scale
//	mnexp -exp fig4,fig7                   # selected figures
//	mnexp -quick                           # reduced trace length (fast)
//	mnexp -format csv -out out             # write CSV files per experiment
//	mnexp -cache results/cache -out results
//	mnexp -scenario examples/scenario/twopod.json -quick
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"memnet/internal/campaign"
	"memnet/internal/experiments"
	"memnet/internal/prof"
	"memnet/internal/scenario"
)

func main() {
	var (
		expFlag = flag.String("exp", "all",
			"comma-separated: table1,table2,fig4,fig5,fig7,fig10,fig11,fig12,fig13,fig14,fig15,mesh,resilience,chaos or all")
		scenFlag = flag.String("scenario", "", "evaluate a declarative scenario file across the workload suite instead of -exp (see SCENARIOS.md); honors -cache")
		quick    = flag.Bool("quick", false, "reduced trace length for a fast pass")
		txns     = flag.Uint64("txns", 0, "override transactions per run")
		seed     = flag.Uint64("seed", 1, "workload seed")
		format   = flag.String("format", "text", "text | csv | chart")
		outDir   = flag.String("out", "", "directory for per-experiment output files plus experiments.json (default stdout)")
		cacheDir = flag.String("cache", "", "content-addressed result cache directory; hits skip simulation")
		maniOut  = flag.String("manifest", "", "also write the campaign manifest JSON to this file")
		shards   = flag.Int("shards", 0, "worker goroutines fanning out independent simulation runs; tables are identical for every value (0 = GOMAXPROCS)")
		spansOut = flag.String("spans-out", "", "write causal spans from every simulated run as one NDJSON file (one block per run, sorted by the run's cache address; byte-identical for every -shards value); bypasses -cache")
		spanSamp = flag.Uint64("span-sample", 0, "span sampling stride per run (default 32 when -spans-out is set)")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	opts := experiments.DefaultOptions()
	if *quick {
		opts = experiments.QuickOptions()
	}
	if *txns > 0 {
		opts.Transactions = *txns
	}
	opts.Seed = *seed
	if *shards > 0 {
		opts.Parallel = *shards
	}
	runner := experiments.NewRunner(opts)
	selected, err := selectExps(experimentsOf(runner), *expFlag)
	if err == nil {
		err = checkFormat(*format)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "mnexp:", err)
		os.Exit(2)
	}
	out := formats[*format]

	stopProf, err := prof.Start(*cpuProf, *memProf)
	if err != nil {
		fatal(err)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, "mnexp:", err)
		}
	}()

	var store *campaign.Store
	if *cacheDir != "" {
		store, err = campaign.Open(*cacheDir)
		if err != nil {
			fatal(err)
		}
	}

	var counter campaign.Counter
	if store != nil {
		runner.Sim = campaign.CachedSim(store, nil, &counter)
	}
	var spanCol *spanCollector
	if *spansOut != "" {
		stride := *spanSamp
		if stride == 0 {
			stride = 32
		}
		// Span-traced runs are never cacheable, so the collector replaces
		// any cache backend outright.
		spanCol = newSpanCollector(stride)
		runner.Sim = spanCol.sim
	}

	if *scenFlag != "" {
		spec, err := scenario.LoadFile(*scenFlag)
		fatalIf(err)
		tab, err := runner.Scenario(spec)
		fatalIf(err)
		emit(tab.ID, out.render(tab), *outDir, out.ext)
		if store != nil {
			fmt.Fprintf(os.Stderr, "mnexp: cache %s: %d hits, %d simulated\n",
				store.Dir(), counter.Hits(), counter.Misses())
		}
		return
	}

	manifest := experiments.NewRunManifest(opts)
	for _, e := range selected {
		if e.id == "table2" {
			emit(e.id, experiments.Table2Text(), *outDir, "txt")
			continue
		}
		tab, err := e.fn()
		if err != nil {
			fmt.Fprintf(os.Stderr, "mnexp: %s: %v\n", e.id, err)
			os.Exit(1)
		}
		manifest.Add(tab)
		emit(e.id, out.render(tab), *outDir, out.ext)
	}
	if store != nil {
		fmt.Fprintf(os.Stderr, "mnexp: cache %s: %d hits, %d simulated\n",
			store.Dir(), counter.Hits(), counter.Misses())
	}
	if spanCol != nil {
		if err := spanCol.writeFile(*spansOut); err != nil {
			fatal(err)
		}
		fmt.Println("wrote", *spansOut)
	}

	manifestPaths := []string{}
	if *outDir != "" {
		manifestPaths = append(manifestPaths, filepath.Join(*outDir, "experiments.json"))
	}
	if *maniOut != "" {
		manifestPaths = append(manifestPaths, *maniOut)
	}
	for _, path := range manifestPaths {
		if err := writeManifest(manifest, path); err != nil {
			fatal(err)
		}
		fmt.Println("wrote", path)
	}
}

// exp is one experiment mnexp can run: its -exp id and the harness that
// regenerates its table (nil for Table 2, which is static text).
type exp struct {
	id string
	fn func() (*experiments.Table, error)
}

// experimentsOf lists every experiment in output order: Table 1, Table 2
// and then runner's figures.
func experimentsOf(runner *experiments.Runner) []exp {
	all := []exp{
		{"table1", func() (*experiments.Table, error) { return experiments.Table1() }},
		{"table2", nil},
	}
	for _, f := range runner.Figures() {
		all = append(all, exp{f.ID, f.Fn})
	}
	return all
}

// selectExps returns the experiments of all that spec names, in all's
// order and each once. spec is "all" or a comma-separated list of ids;
// an id that names no experiment is an error that lists the known ones.
func selectExps(all []exp, spec string) ([]exp, error) {
	if spec == "all" {
		return all, nil
	}
	want := map[string]bool{}
	for _, id := range strings.Split(spec, ",") {
		want[strings.TrimSpace(id)] = true
	}
	var sel []exp
	for _, e := range all {
		if want[e.id] {
			sel = append(sel, e)
			delete(want, e.id)
		}
	}
	if len(want) > 0 {
		unknown := make([]string, 0, len(want))
		for id := range want {
			unknown = append(unknown, strconv.Quote(id))
		}
		sort.Strings(unknown)
		known := make([]string, len(all))
		for i, e := range all {
			known[i] = e.id
		}
		return nil, fmt.Errorf("-exp: unknown experiment %s; known: %s, all",
			strings.Join(unknown, ", "), strings.Join(known, ", "))
	}
	return sel, nil
}

// writeManifest writes the campaign manifest JSON to path.
func writeManifest(m *experiments.RunManifest, path string) error {
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = m.Encode(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// formats maps each -format value to its table renderer and the
// extension of its output file.
var formats = map[string]struct {
	render func(*experiments.Table) string
	ext    string
}{
	"text":  {(*experiments.Table).Text, "txt"},
	"csv":   {(*experiments.Table).CSV, "csv"},
	"chart": {(*experiments.Table).Chart, "txt"},
}

// checkFormat rejects a -format value formats does not hold.
func checkFormat(format string) error {
	if _, ok := formats[format]; !ok {
		return fmt.Errorf("-format: unknown format %q (text | csv | chart)", format)
	}
	return nil
}

// emit writes content to a file in dir (if set) or to stdout.
func emit(id, content, dir, ext string) {
	if dir == "" {
		fmt.Println(content)
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatal(err)
	}
	path := filepath.Join(dir, id+"."+ext)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		fatal(err)
	}
	fmt.Println("wrote", path)
}

// fatal prints the error and exits.
func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mnexp:", err)
	os.Exit(1)
}

// fatalIf is fatal for non-nil errors.
func fatalIf(err error) {
	if err != nil {
		fatal(err)
	}
}
