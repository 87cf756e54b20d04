// Command mnsweep runs one-dimensional parameter sensitivity sweeps and
// emits CSV, supporting the paper's "we experimented modifying this
// parameter" notes (SerDes latency, interleave granularity, buffering,
// MLP window, switch bandwidth, and trace seed).
//
// Examples:
//
//	mnsweep -param serdes -values 0,1,2,5,10 -topology tree
//	mnsweep -param interleave -values 64,256,1024 -workload BUFF
//	mnsweep -param window -values 16,32,64,128 -topology chain
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"memnet"
	"memnet/internal/topology"
)

// topoUsage is the -topology help text. It must stay a string constant
// (cmd/mndocs renders flag tables from the AST) and must track
// topology.KindNames exactly; TestTopologyUsageCurrent pins it.
const topoUsage = "chain | ring | tree | skiplist | metacube | mesh"

func main() {
	var (
		param    = flag.String("param", "serdes", "serdes | interleave | window | buffers | switchbw | seed")
		values   = flag.String("values", "", "comma-separated values (required)")
		topoFlag = flag.String("topology", "tree", topoUsage)
		wlFlag   = flag.String("workload", "KMEANS", "workload name")
		dramPct  = flag.Float64("dram-pct", 100, "percent of capacity from DRAM")
		txns     = flag.Uint64("txns", 8000, "transactions per run")
		cacheDir = flag.String("cache", "", "content-addressed result cache directory; hits skip simulation")
	)
	flag.Parse()

	if *values == "" {
		fmt.Fprintln(os.Stderr, "mnsweep: -values is required")
		os.Exit(2)
	}
	topo, err := topology.ParseKind(*topoFlag)
	check(err)

	base := memnet.DefaultConfig()
	base.Topology = topo
	base.Workload = *wlFlag
	base.DRAMFraction = *dramPct / 100
	base.Transactions = *txns
	check(sweep(os.Stdout, *param, parseValues(*values), base, *cacheDir))
}

// sweep writes the CSV header and one row per value, each row a run of
// base with param set to that value.
func sweep(w io.Writer, param string, values []int64, base memnet.Config, cacheDir string) error {
	fmt.Fprintln(w, "param,value,finish_ns,mean_latency_ns,to_mem_ns,in_mem_ns,from_mem_ns,energy_uj")
	for _, v := range values {
		sys := memnet.DefaultSystem()
		cfg := base

		switch param {
		case "serdes":
			sys.SerDesLatency = memnet.Time(v) * memnet.Nanosecond
		case "interleave":
			sys.InterleaveBytes = uint64(v)
		case "window":
			sys.MaxOutstanding = int(v)
		case "buffers":
			sys.LinkBufferPackets = int(v)
		case "switchbw":
			tn := memnet.DefaultTuning()
			tn.SwitchBandwidthBps = v * 1e9
			cfg.Tuning = &tn
		case "seed":
			cfg.Seed = uint64(v)
		default:
			return fmt.Errorf("unknown param %q", param)
		}
		cfg.System = &sys

		res, _, err := memnet.RunCached(cfg, cacheDir)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s,%d,%.1f,%.2f,%.2f,%.2f,%.2f,%.2f\n",
			param, v,
			res.FinishTime.Nanoseconds(),
			res.MeanLatency.Nanoseconds(),
			res.Breakdown.ToMem.Nanoseconds(),
			res.Breakdown.InMem.Nanoseconds(),
			res.Breakdown.FromMem.Nanoseconds(),
			res.Energy.TotalPJ()/1e6)
	}
	return nil
}

// parseValues parses the comma-separated -values list, dropping
// duplicates (first occurrence wins, with a warning) so a repeated
// value does not silently produce a repeated sweep point.
func parseValues(s string) []int64 {
	seen := make(map[int64]bool)
	var out []int64
	for _, vs := range strings.Split(s, ",") {
		v, err := strconv.ParseInt(strings.TrimSpace(vs), 10, 64)
		check(err)
		if seen[v] {
			fmt.Fprintf(os.Stderr, "mnsweep: duplicate value %d in -values ignored\n", v)
			continue
		}
		seen[v] = true
		out = append(out, v)
	}
	return out
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "mnsweep:", err)
		os.Exit(1)
	}
}
