package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"memnet/internal/arb"
	"memnet/internal/config"
	"memnet/internal/core"
	"memnet/internal/experiments"
	"memnet/internal/span"
	"memnet/internal/topology"
	"memnet/internal/workload"
)

// TestSelectExps: -exp picks experiments in output order, each once, and
// an unknown id fails the whole selection with an error that names it
// and lists the known ids, so a typo cannot pass for a shorter run.
func TestSelectExps(t *testing.T) {
	all := experimentsOf(experiments.NewRunner(experiments.QuickOptions()))
	for _, tc := range []struct {
		spec string
		want string // selected ids, or the error's unknown ids
		err  bool
	}{
		{"all", "table1 table2 fig4 fig5 fig7 fig10 fig11 fig12 fig13 fig14 fig15 mesh resilience chaos", false},
		{"fig4", "fig4", false},
		{" fig7 , fig4,table2", "table2 fig4 fig7", false},
		{"fig4,fig4", "fig4", false},
		{"fig99", `"fig99"`, true},
		{"table1,fig99", `"fig99"`, true},
		{"fig98,fig4,fig97", `"fig97", "fig98"`, true},
		{"", `""`, true},
		{"fig4,", `""`, true},
	} {
		sel, err := selectExps(all, tc.spec)
		if tc.err {
			if err == nil {
				t.Errorf("-exp %q: selected %d experiments, want an error", tc.spec, len(sel))
				continue
			}
			msg := err.Error()
			if !strings.Contains(msg, "unknown experiment "+tc.want+";") ||
				!strings.Contains(msg, "known: table1, table2, fig4,") {
				t.Errorf("-exp %q: error %q, want it to name %s and list the known ids", tc.spec, msg, tc.want)
			}
			continue
		}
		if err != nil {
			t.Errorf("-exp %q: %v", tc.spec, err)
			continue
		}
		ids := make([]string, len(sel))
		for i, e := range sel {
			ids[i] = e.id
		}
		if got := strings.Join(ids, " "); got != tc.want {
			t.Errorf("-exp %q selected %q, want %q", tc.spec, got, tc.want)
		}
	}
}

// TestCheckFormat: -format takes text, csv or chart; any other value is
// an error naming it, which mnexp reports with exit status 2 before it
// simulates anything.
func TestCheckFormat(t *testing.T) {
	for _, ok := range []string{"text", "csv", "chart"} {
		if err := checkFormat(ok); err != nil {
			t.Errorf("-format %s: %v", ok, err)
		}
	}
	for _, bad := range []string{"json", "", "TEXT", "txt"} {
		err := checkFormat(bad)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("-format: unknown format %q", bad)) {
			t.Errorf("-format %q: error %v, want one naming it", bad, err)
		}
	}
}

// TestSpanBlocksPerRun: -spans-out keeps one block per run. Two runs that
// differ only in arbitration share label, workload, ports, capacity,
// seed and length, and still write a block each.
func TestSpanBlocksPerRun(t *testing.T) {
	sc := newSpanCollector(32)
	wl, _ := workload.ByName("KMEANS")
	p := core.Params{Sys: config.Default(), Topo: topology.Tree, Workload: wl, Transactions: 300, Seed: 1}
	for _, a := range []arb.Kind{arb.RoundRobin, arb.Distance} {
		p.Arb = a
		if _, err := sc.sim(p); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(t.TempDir(), "spans.ndjson")
	if err := sc.writeFile(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(b), `{"schema":`); n != 2 {
		t.Fatalf("%d span blocks for two runs differing in arbitration, want 2", n)
	}
	if _, _, err := span.Read(bytes.NewReader(b)); err != nil {
		t.Fatal(err)
	}
}
