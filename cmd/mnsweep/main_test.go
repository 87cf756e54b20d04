package main

import (
	"bytes"
	"strings"
	"testing"

	"memnet"
	"memnet/internal/topology"
)

// TestTopologyUsageCurrent pins the -topology help text to the kind
// registry that parses the flag.
func TestTopologyUsageCurrent(t *testing.T) {
	if want := strings.Join(topology.KindNames(), " | "); topoUsage != want {
		t.Errorf("-topology usage %q is stale; want %q", topoUsage, want)
	}
}

// TestSeedSweepRowsDiffer checks that -param seed -values 2,3 prints
// two different rows: adjacent seeds must drive different workloads.
func TestSeedSweepRowsDiffer(t *testing.T) {
	base := memnet.DefaultConfig()
	base.Topology = memnet.Tree
	base.Workload = "KMEANS"
	base.Transactions = 2000
	var out bytes.Buffer
	if err := sweep(&out, "seed", []int64{2, 3}, base, ""); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("want a header and two rows, got:\n%s", out.String())
	}
	two := strings.TrimPrefix(lines[1], "seed,2,")
	three := strings.TrimPrefix(lines[2], "seed,3,")
	if two == three {
		t.Fatalf("seeds 2 and 3 printed the same measurements: %s", two)
	}
}
