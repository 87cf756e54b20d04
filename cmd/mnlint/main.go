// Command mnlint runs memnet's linter suite (see internal/lint) over Go
// packages:
//
//	go run ./cmd/mnlint ./...
//	go run ./cmd/mnlint -c detmap,statskey ./internal/core
//	go run ./cmd/mnlint -list
//
// Findings print as file:line:col: analyzer: message lines, sorted by
// position then analyzer. Exit status is 0 when there are none, 1 on
// findings, 2 on operational errors (bad flags, unloadable packages,
// type errors).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"memnet/internal/lint"
	"memnet/internal/lint/analysis"
	"memnet/internal/lint/loader"
	"memnet/internal/lint/report"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command behind main, returning the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mnlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	checks := fs.String("c", "", "comma-separated analyzer subset (default: all)")
	list := fs.Bool("list", false, "list analyzers and exit")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: mnlint [-c analyzers] [-list] [packages]\n\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}

	analyzers := lint.Analyzers()
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-11s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	if *checks != "" {
		names := strings.Split(*checks, ",")
		analyzers = lint.ByName(names...)
		if len(analyzers) != len(names) {
			fmt.Fprintf(stderr, "mnlint: unknown analyzer in -c %q\n", *checks)
			return 2
		}
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	units, err := loader.New().Load(".", patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "mnlint: %v\n", err)
		return 2
	}
	// Collect everything, then order globally: the loader yields
	// packages in dependency order, which is not reporting order.
	var all []analysis.Finding
	for _, u := range units {
		findings, err := analysis.RunAnalyzers(u, analyzers)
		if err != nil {
			fmt.Fprintf(stderr, "mnlint: %v\n", err)
			return 2
		}
		all = append(all, findings...)
	}
	if wd, err := os.Getwd(); err == nil {
		report.Relativize(all, wd)
	}
	report.Sort(all)
	if err := report.WriteText(stdout, all); err != nil {
		fmt.Fprintf(stderr, "mnlint: %v\n", err)
		return 2
	}
	if len(all) > 0 {
		return 1
	}
	return 0
}
