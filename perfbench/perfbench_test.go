package main

import (
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestBenchmarkJSON lints BENCHMARK.json and pins it to the tables the
// program measures by; an edited copy that breaks the pairing fails.
func TestBenchmarkJSON(t *testing.T) {
	const path = "../BENCHMARK.json"
	if _, err := loadBenchmark(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ from, to string }{
		{`"wall_s"`, `"wall_seconds"`},
		{`"bound": 0.05`, `"bound": 0.5`},
		{`"run_seconds"`, `"runSeconds"`},
		{`"tree-steady"`, `"tree"`},
	} {
		bad := filepath.Join(t.TempDir(), "BENCHMARK.json")
		if err := os.WriteFile(bad, []byte(strings.Replace(string(data), c.from, c.to, 1)), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := loadBenchmark(bad); err == nil {
			t.Errorf("BENCHMARK.json with %s replaced by %s passes", c.from, c.to)
		}
	}
}

// TestSmoke runs every workload, both run modes, at a small fraction of
// the real input sizes, and checks that every metric BENCHMARK.json
// names comes out with its unit.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	b, err := loadBenchmark("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			var log strings.Builder
			r := &workloadRun{w: w, seed: 7, workers: 2, trace: trace, traceDir: t.TempDir(), scale: 0.01, log: &log, components: true}
			rep := r.execute()
			if !rep.Correct || rep.Failed != 0 {
				t.Fatalf("%s trace=%v: %d of %d passes failed:\n%s", w.name, trace, rep.Failed, rep.Attempted, log.String())
			}
			want := b.EndToEnd
			if trace {
				want = b.PerLayer
			}
			line := resultLine(rep, trace)
			if len(line.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.name, trace, len(line.Metrics), len(want))
			}
			for _, m := range want {
				v, ok := line.Metrics[m.Name]
				if !ok || v.Unit != m.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s trace=%v: metric %s = %+v, want a number in %s", w.name, trace, m.Name, v, m.Unit)
				}
			}
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64 // statistics.quantiles(xs, n=4)
	}{
		{[]float64{1, 2, 3, 4}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{5, 7}, [3]float64{4.5, 6, 7.5}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// runs returns ten samples around base, spread by ±0.5%.
func runs(base float64) dist {
	xs := make([]float64, 10)
	for i := range xs {
		xs[i] = base * (1 + 0.001*float64(i-5))
	}
	return newDist("s", xs)
}

func TestJudgeFlagsSlowdownBeyondBound(t *testing.T) {
	wall := metric{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.10}
	throughput := metric{Name: "sim_txn_per_s", Unit: "1/s", Better: "higher", Bound: 0.10}
	for _, c := range []struct {
		m    metric
		a, b dist
		want string
	}{
		{wall, runs(2), runs(2 * 1.15), verdictRegressed},
		{wall, runs(2), runs(2 * 1.05), verdictOK},
		{wall, runs(2), runs(2 * 0.7), verdictOK},
		{throughput, runs(1e5), runs(1e5 / 1.15), verdictRegressed},
		{throughput, runs(1e5), runs(1e5 / 1.05), verdictOK},
		{wall, newDist("s", []float64{1, 1.5, 2, 2.5, 3}), runs(2.2), verdictUnresolved},
		{wall, newDist("s", []float64{3, 3.5, 4, 4.5, 5}), runs(2), verdictOK}, // every change run is faster
	} {
		if got := judge(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s: %v -> %v: %s, want %s", c.m.Name, c.a.Median, c.b.Median, got, c.want)
		}
	}
}

func TestCompareReportsFails(t *testing.T) {
	mk := func(wall float64, failed int, finish float64) *report {
		return &report{Schema: Schema, Workloads: map[string]*workloadReport{
			"tree-steady": {
				Correct: failed == 0, Attempted: 9, Failed: failed,
				EndToEnd: map[string]dist{"wall_s": runs(wall)},
				Sim:      map[string]float64{"model.finish_us": finish},
			},
		}}
	}
	parent := mk(2, 0, 100)
	for _, c := range []struct {
		name   string
		change *report
		ok     bool
	}{
		{"same", mk(2, 0, 100), true},
		{"5% slower", mk(2.1, 0, 100), true},
		{"30% slower", mk(2.6, 0, 100), false},
		{"failed pass", mk(2, 1, 100), false},
		{"simulation changed", mk(2, 0, 101), false},
	} {
		if got := compareReports(io.Discard, parent, c.change); got != c.ok {
			t.Errorf("%s: compare passes = %v, want %v", c.name, got, c.ok)
		}
	}
}

func TestFoldTraces(t *testing.T) {
	const text = `File: perfbench
Type: cpu
-----------+-------------------------------------------------------
      30ms   memnet/internal/sim.(*event).before (inline)
             memnet/internal/sim.(*Engine).siftDown
             main.treePass
-----------+-------------------------------------------------------
      10ms   runtime.mallocgc
             memnet/internal/router.(*Router).drain
-----------+-------------------------------------------------------
      10ms   sort.insertionSort
             memnet/internal/topology.(*Graph).rebuild
-----------+-------------------------------------------------------
      50ms   memnet/internal/arb.(*wrr).Pick
             memnet/internal/router.(*Router).drain
-----------+-------------------------------------------------------
`
	got, err := foldTraces(text)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"sim": 0.3, "runtime": 0.1, "core": 0.1, "router": 0.5}
	for k, v := range want {
		if math.Abs(got[k]-v) > 1e-9 {
			t.Errorf("%s share %v, want %v (all: %v)", k, got[k], v, got)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []spanRec{
		{ID: 1, Name: "Runner.Fig4", StartNs: 0, EndNs: 100},
		{ID: 2, Parent: 1, Name: "Instance.Run", StartNs: 10, EndNs: 30},
		{ID: 3, Parent: 1, Name: "Instance.Run", StartNs: 20, EndNs: 50}, // overlaps on the other worker
		{ID: 4, Parent: 3, Name: "core.Build", StartNs: 20, EndNs: 25},
	}
	selfTimes(spans)
	for i, want := range []int64{60, 20, 25, 5} {
		if spans[i].SelfNs != want {
			t.Errorf("span %d self %d ns, want %d", spans[i].ID, spans[i].SelfNs, want)
		}
	}
}
