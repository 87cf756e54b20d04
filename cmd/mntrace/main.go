// Command mntrace analyzes causal span files written by mnsim
// -spans-out / mnexp -spans-out (NDJSON, schema memnet/spans/v1):
// per-cause latency waterfalls, per-location blame tables, worst-N
// transaction narratives, two-run diffs, and a structural consistency
// check for CI.
//
// Examples:
//
//	mnsim -topology tree -workload KMEANS -spans-out spans.ndjson
//	mntrace spans.ndjson
//	mntrace -worst 3 spans.ndjson
//	mntrace -diff other.ndjson spans.ndjson
//	mntrace -check spans.ndjson
package main

import (
	"flag"
	"fmt"
	"os"

	"memnet/internal/span"
)

func main() {
	var (
		checkFlag = flag.Bool("check", false, "validate the span file (structure, segment ordering, attribution) and exit non-zero on any violation")
		worstN    = flag.Int("worst", 0, "print narratives for the N worst-latency transactions")
		topN      = flag.Int("top", 12, "blame-table rows to print")
		diffFile  = flag.String("diff", "", "compare against a second span file: per-cause latency deltas")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: mntrace [flags] spans.ndjson\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}

	hdr, spans, err := readSpans(flag.Arg(0))
	fatal(err)

	if *checkFlag {
		if err := span.Check(spans); err != nil {
			fatal(err)
		}
		a := span.Analyze(spans)
		fmt.Printf("ok  %d spans, %.1f%% of end-to-end latency attributed\n",
			len(spans), a.Attribution()*100)
		return
	}

	if *diffFile != "" {
		bHdr, bSpans, err := readSpans(*diffFile)
		fatal(err)
		diffReport(os.Stdout, flag.Arg(0), hdr, spans, *diffFile, bHdr, bSpans)
		return
	}

	a := span.Analyze(spans)
	summary(os.Stdout, hdr, a)
	waterfall(os.Stdout, a)
	blame(os.Stdout, a, *topN)
	if *worstN > 0 {
		span.Narrate(os.Stdout, span.WorstN(spans, *worstN))
	}
}

// readSpans loads and parses one span file.
func readSpans(path string) (span.Header, []span.TxSpan, error) {
	f, err := os.Open(path)
	if err != nil {
		return span.Header{}, nil, err
	}
	defer f.Close()
	return span.Read(f)
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "mntrace:", err)
		os.Exit(1)
	}
}
