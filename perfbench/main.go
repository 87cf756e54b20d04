// Command perfbench is memnet's performance benchmark: it times the
// simulator from outside, through its public entry points, on four
// workloads, checks every output, and reports end-to-end metrics (host
// wall and CPU time, simulated transactions and engine events per
// second, allocations, peak memory, setup time) plus per-layer metrics
// (component microbenchmarks, a CPU profile folded by layer, GC share).
// BENCHMARK.json at the repository root names the workloads and
// metrics; README.md in this directory explains each one.
//
// One workload in this process, printing one JSON result line last:
//
//	perfbench -workload tree-steady -seed 1 -seconds 20 -trace 0
//
// Every workload, each in its own child process, one at a time:
//
//	perfbench -out report.json
//	perfbench -compare parent.json change.json
//	perfbench -check baseline.json
//
// The module lives in its own directory and is built by run.py, which
// keeps the build cache inside the checkout. It runs from the
// repository root, and every run except -compare first checks
// BENCHMARK.json against the tables it measures by.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// defaultSeconds is the time budget of one untraced workload run.
const defaultSeconds = 20

// maxWorkers caps the fan-out: two workers, never more than the CPUs.
const maxWorkers = 2

// skipComponentsEnv, when set, keeps a traced workload run from running
// the layer microbenchmarks. A full run sets it in its children and
// runs the microbenchmarks once itself.
const skipComponentsEnv = "PERFBENCH_SKIP_COMPONENTS"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		one       = fs.String("workload", "", "run only this workload, in this process, and print its result line")
		names     = fs.String("workloads", "", "comma-separated workloads of a full run (default: all)")
		seed      = fs.Uint64("seed", 1, "seed of every generated input")
		seconds   = fs.Int("seconds", defaultSeconds, "time budget of one untraced workload run, warm-up and checks included")
		trace     = fs.Int("trace", 0, "with -workload: 0 reports end-to-end metrics, 1 per-layer metrics")
		out       = fs.String("out", "", "write the JSON report here")
		traceDir  = fs.String("trace-dir", filepath.Join(".bench_build", "perfbench"), "directory for CPU profiles, spans and child reports")
		compare   = fs.Bool("compare", false, "compare two reports: -compare PARENT.json CHANGE.json")
		checkPath = fs.String("check", "", "run the benchmark and compare it against this baseline report")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	workers := min(maxWorkers, runtime.NumCPU())

	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "perfbench: -compare needs two reports: PARENT.json CHANGE.json")
			return 2
		}
		parent, err := readReport(fs.Arg(0))
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 2
		}
		change, err := readReport(fs.Arg(1))
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 2
		}
		if !compareReports(stdout, parent, change) {
			return 1
		}
		return 0
	}

	if _, err := loadBenchmark("BENCHMARK.json"); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n(run from the repository root)\n", err)
		return 2
	}
	runtime.GOMAXPROCS(workers)

	if *one != "" {
		w, err := workloadByName(*one)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 2
		}
		r := &workloadRun{
			w: w, seed: inputSeed(*seed), workers: workers, seconds: time.Duration(*seconds) * time.Second,
			trace: *trace == 1, traceDir: *traceDir, scale: 1, log: stderr,
			components: os.Getenv(skipComponentsEnv) == "",
		}
		rep := r.execute()
		if *out != "" {
			if err := writeJSON(*out, rep); err != nil {
				fmt.Fprintln(stderr, "perfbench:", err)
				return 1
			}
		}
		if err := json.NewEncoder(stdout).Encode(resultLine(rep, r.trace)); err != nil {
			return 1
		}
		if !rep.Correct {
			return 1
		}
		return 0
	}

	var baseline *report
	if *checkPath != "" {
		var err error
		if baseline, err = readReport(*checkPath); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 2
		}
	}
	list := workloadNames()
	if *names != "" {
		list = strings.Split(*names, ",")
		for _, n := range list {
			if _, err := workloadByName(n); err != nil {
				fmt.Fprintln(stderr, "perfbench:", err)
				return 2
			}
		}
	}
	rep, err := fullRun(list, *seed, *seconds, workers, *traceDir, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	printReport(stdout, rep)
	if *out != "" {
		if err := writeJSON(*out, rep); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}
	ok := true
	for _, wr := range rep.Workloads {
		ok = ok && wr.Correct
	}
	if baseline != nil {
		fmt.Fprintln(stdout)
		ok = compareReports(stdout, baseline, rep) && ok
	}
	if !ok {
		return 1
	}
	return 0
}

// inputSeed maps -seed to the seed every generated input derives from.
// The traffic generator ignores a seed's lowest bit, so mapping to odd
// values keeps the inputs of every -seed distinct.
func inputSeed(seed uint64) uint64 { return 2*seed + 1 }

// result is the line a workload run prints last, read by whoever
// started it: end-to-end medians without tracing, layer metrics with.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func resultLine(rep *workloadReport, trace bool) result {
	res := result{Correct: rep.Correct, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: map[string]value{}}
	if trace {
		for _, m := range perLayer {
			if v, ok := rep.PerLayer[m.Name]; ok {
				res.Metrics[m.Name] = v
			}
		}
		return res
	}
	for _, m := range endToEnd {
		if d, ok := rep.EndToEnd[m.Name]; ok {
			res.Metrics[m.Name] = value{Unit: m.Unit, Value: d.Median}
		}
	}
	return res
}

// fullRun runs each workload in its own child process, one at a time:
// first untraced for the end-to-end metrics, then traced for the layer
// metrics. Then, with no child running, it runs the layer
// microbenchmarks itself.
func fullRun(names []string, seed uint64, seconds, workers int, traceDir string, log io.Writer) (*report, error) {
	began := time.Now()
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return nil, err
	}
	rep := &report{
		Schema: Schema, Go: runtime.Version(), CPUs: runtime.NumCPU(), GOMAXPROCS: workers,
		Workers: workers, Seed: seed, Seconds: seconds, Workloads: map[string]*workloadReport{},
	}
	for _, name := range names {
		wr := &workloadReport{Correct: true}
		for trace := 0; trace <= 1; trace++ {
			part := filepath.Join(traceDir, fmt.Sprintf("%s.trace%d.json", name, trace))
			_ = os.Remove(part) // absent or not, an earlier run's report must not stand in for this child's
			cmd := exec.Command(self, "-workload", name, "-seed", fmt.Sprint(seed),
				"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace),
				"-trace-dir", traceDir, "-out", part)
			cmd.Stdout, cmd.Stderr = log, log
			cmd.Env = append(os.Environ(), skipComponentsEnv+"=1")
			start := time.Now()
			runErr := cmd.Run()
			var exit *exec.ExitError
			if runErr != nil && !errors.As(runErr, &exit) {
				return nil, fmt.Errorf("%s: %w", name, runErr)
			}
			fmt.Fprintf(log, "perfbench: %s trace=%d finished in %.1fs\n", name, trace, time.Since(start).Seconds())
			var child workloadReport
			data, err := os.ReadFile(part)
			if err == nil {
				err = json.Unmarshal(data, &child)
			}
			if err != nil {
				wr.Correct = false
				wr.Failed++
				fmt.Fprintf(log, "perfbench: %s: no report from the child: %v\n", name, err)
				continue
			}
			wr.merge(&child)
		}
		rep.Workloads[name] = wr
	}
	start := time.Now()
	if rep.Components, err = runLayerBenches(inputSeed(seed), 1); err != nil {
		return nil, fmt.Errorf("layer microbenchmarks: %w", err)
	}
	fmt.Fprintf(log, "perfbench: layer microbenchmarks finished in %.1fs; full run %.1fs\n",
		time.Since(start).Seconds(), time.Since(began).Seconds())
	return rep, nil
}
