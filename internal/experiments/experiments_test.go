package experiments

import (
	"strings"
	"testing"

	"memnet/internal/arb"
	"memnet/internal/core"
	"memnet/internal/topology"
	"memnet/internal/workload"
)

func TestTable1Shape(t *testing.T) {
	tab, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := tab.Cell("DDR3", "3 DPC"); !ok || v != 800 {
		t.Fatalf("DDR3 3DPC = %v", v)
	}
	if v, ok := tab.Cell("DDR4", "1 DPC"); !ok || v != 2133 {
		t.Fatalf("DDR4 1DPC = %v", v)
	}
}

func TestTable2Text(t *testing.T) {
	txt := Table2Text()
	for _, want := range []string{"2TB", "16GB (DRAM)", "64GB (NVM)", "256",
		"tRCD=12ns", "tWR=320ns", "5 pJ/bit/hop", "16 lanes x 15 Gbps"} {
		if !strings.Contains(txt, want) {
			t.Errorf("Table 2 missing %q:\n%s", want, txt)
		}
	}
}

func TestTableHelpers(t *testing.T) {
	tab := &Table{
		Columns: []string{"A", "B"},
		Rows:    []Row{{Label: "r1", Values: []float64{1, 2}}},
	}
	if v, ok := tab.Cell("r1", "B"); !ok || v != 2 {
		t.Fatal("Cell lookup")
	}
	if _, ok := tab.Cell("r1", "C"); ok {
		t.Fatal("missing column should report !ok")
	}
	if _, ok := tab.Cell("r2", "A"); ok {
		t.Fatal("missing row should report !ok")
	}
	if r, ok := tab.RowByLabel("r1"); !ok || r.Values[0] != 1 {
		t.Fatal("RowByLabel")
	}
}

func TestRenderers(t *testing.T) {
	tab := &Table{
		Title:   "demo",
		Unit:    "widgets",
		Columns: []string{"X", "average"},
		Rows:    []Row{{Label: "cfg-1", Values: []float64{1.5, 1.5}}},
	}
	txt := tab.Text()
	for _, want := range []string{"demo", "widgets", "cfg-1", "1.50", "average"} {
		if !strings.Contains(txt, want) {
			t.Errorf("Text missing %q:\n%s", want, txt)
		}
	}
	csv := tab.CSV()
	if !strings.HasPrefix(csv, "configuration,X,average\n") {
		t.Errorf("CSV header wrong: %q", csv)
	}
	if !strings.Contains(csv, "cfg-1,1.5000,1.5000") {
		t.Errorf("CSV row wrong: %q", csv)
	}
}

func TestRunnerMemoizes(t *testing.T) {
	r := NewRunner(Options{Transactions: 500, Seed: 1, Workloads: []string{"NW"}})
	calls := 0
	r.Sim = func(p core.Params) (core.Results, error) {
		calls++
		return core.Simulate(p)
	}
	wl, _ := workload.ByName("NW")
	p := r.params(MNConfig{Topo: topology.Tree, DRAMFraction: 1, Arb: arb.RoundRobin}, wl)
	a, err := r.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := r.Run(p)
	if a != b {
		t.Fatal("memoized result differs")
	}
	if calls != 1 {
		t.Fatalf("%d simulations of one run, want 1", calls)
	}
}

func TestMNConfigLabel(t *testing.T) {
	c := MNConfig{Topo: topology.SkipList, DRAMFraction: 0.5}
	if c.Label() != "50%-SL (NVM-L)" {
		t.Fatalf("got %q", c.Label())
	}
	c = MNConfig{Topo: topology.MetaCube, DRAMFraction: 0}
	if c.Label() != "0%-MC" {
		t.Fatalf("got %q", c.Label())
	}
}

func TestOptionsSuiteFilter(t *testing.T) {
	o := Options{Workloads: []string{"NW", "BUFF"}}
	s := o.suite()
	if len(s) != 2 || s[0].Name != "NW" || s[1].Name != "BUFF" {
		t.Fatalf("filtered suite: %v", s)
	}
	if len((Options{}).suite()) != 8 {
		t.Fatal("default suite should be the full eight")
	}
}

func TestMean(t *testing.T) {
	if mean(nil) != 0 {
		t.Fatal("empty mean")
	}
	if mean([]float64{1, 2, 3}) != 2 {
		t.Fatal("mean")
	}
}

func TestChart(t *testing.T) {
	tab := &Table{
		Title:   "demo",
		Columns: []string{"X", "average"},
		Rows: []Row{
			{Label: "up", Values: []float64{0, 30}},
			{Label: "down", Values: []float64{0, -10}},
		},
	}
	c := tab.Chart()
	if !strings.Contains(c, "average column") {
		t.Errorf("chart header missing: %q", c)
	}
	if !strings.Contains(c, "up") || !strings.Contains(c, "down") {
		t.Error("chart rows missing")
	}
	if !strings.Contains(c, "#") || !strings.Contains(c, "|") {
		t.Error("chart bars or zero axis missing")
	}
	if !strings.Contains(c, "30.00") || !strings.Contains(c, "-10.00") {
		t.Error("chart values missing")
	}
	empty := &Table{Title: "none"}
	if !strings.Contains(empty.Chart(), "empty") {
		t.Error("empty chart fallback missing")
	}
}
