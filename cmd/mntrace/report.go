// Report rendering for mntrace: every function writes deterministic
// text to w, so the CLI's output for a deterministic span file is
// byte-stable (pinned by the report tests).
package main

import (
	"fmt"
	"io"
	"strings"

	"memnet/internal/sim"
	"memnet/internal/span"
)

// barWidth is the waterfall bar length at 100% share.
const barWidth = 40

// bar renders a proportional block bar for share in [0,1].
func bar(share float64) string {
	n := int(share*barWidth + 0.5)
	if n < 0 {
		n = 0
	}
	if n > barWidth {
		n = barWidth
	}
	return strings.Repeat("#", n)
}

// summary prints the run identity and attribution coverage.
func summary(w io.Writer, hdr span.Header, a *span.Analysis) {
	fmt.Fprintf(w, "spans       %d  (stride %d", a.Spans, hdr.Stride)
	if hdr.Dropped > 0 {
		fmt.Fprintf(w, ", dropped %d", hdr.Dropped)
	}
	fmt.Fprintf(w, ")")
	if hdr.Label != "" {
		fmt.Fprintf(w, "  %s", hdr.Label)
	}
	if hdr.Workload != "" {
		fmt.Fprintf(w, "  %s", hdr.Workload)
	}
	fmt.Fprintf(w, "  seed %d\n", hdr.Seed)
	fmt.Fprintf(w, "mean lat    %v  attributed %.1f%%  (+%v mean host-window wait)\n",
		sim.Time(a.MeanLatencyPs()), a.Attribution()*100, meanWindow(a))
}

// meanWindow is the mean pre-injection host-window wait per span.
func meanWindow(a *span.Analysis) sim.Time {
	if a.Spans == 0 {
		return 0
	}
	return sim.Time(a.WindowPs / int64(a.Spans))
}

// waterfall prints the per-cause latency decomposition: mean
// picoseconds per sampled transaction and share of attributed latency,
// in fixed cause order so the columns line up across runs.
func waterfall(w io.Writer, a *span.Analysis) {
	fmt.Fprintf(w, "\nwaterfall   (mean per sampled tx; %% of attributed latency)\n")
	for c := 0; c < span.NumCauses; c++ {
		cause := span.Cause(c)
		if cause == span.HostWindow {
			continue // pre-injection; reported in the summary line
		}
		total := a.ByCause[c]
		share := 0.0
		if a.AttributedPs > 0 {
			share = float64(total) / float64(a.AttributedPs)
		}
		mean := sim.Time(0)
		if a.Spans > 0 {
			mean = sim.Time(total / int64(a.Spans))
		}
		fmt.Fprintf(w, "  %-14s %10v  %5.1f%%  %s\n", cause, mean, share*100, bar(share))
	}
}

// blame prints the per-location table: where attributed time was spent,
// worst locations first, each with its dominant cause.
func blame(w io.Writer, a *span.Analysis, top int) {
	if len(a.Locs) == 0 {
		return
	}
	n := len(a.Locs)
	if top > 0 && top < n {
		n = top
	}
	fmt.Fprintf(w, "\nblame       top %d of %d locations (share of attributed latency)\n", n, len(a.Locs))
	for _, lb := range a.Locs[:n] {
		// Dominant cause at this location, by attributed time.
		best, bestV := span.Cause(0), int64(-1)
		for c, v := range lb.ByCause {
			if v > bestV {
				best, bestV = span.Cause(c), v
			}
		}
		share := 0.0
		if a.AttributedPs > 0 {
			share = float64(lb.Total) / float64(a.AttributedPs)
		}
		fmt.Fprintf(w, "  %-10s %10v  %5.1f%%  mostly %s\n",
			lb.Loc, sim.Time(lb.Total), share*100, best)
	}
}

// diffReport compares two span files cause by cause: mean latency per
// sampled transaction in each run and the delta, so a regression shows
// up as the cause (and magnitude) that moved.
func diffReport(w io.Writer, aName string, aHdr span.Header, aSpans []span.TxSpan,
	bName string, bHdr span.Header, bSpans []span.TxSpan) {
	a, b := span.Analyze(aSpans), span.Analyze(bSpans)
	fmt.Fprintf(w, "A %s: %d spans (stride %d), mean lat %v\n",
		aName, a.Spans, aHdr.Stride, sim.Time(a.MeanLatencyPs()))
	fmt.Fprintf(w, "B %s: %d spans (stride %d), mean lat %v\n",
		bName, b.Spans, bHdr.Stride, sim.Time(b.MeanLatencyPs()))
	fmt.Fprintf(w, "\n%-14s %12s %12s %12s\n", "cause", "mean A", "mean B", "delta B-A")
	for c := 0; c < span.NumCauses; c++ {
		ma, mb := int64(0), int64(0)
		if a.Spans > 0 {
			ma = a.ByCause[c] / int64(a.Spans)
		}
		if b.Spans > 0 {
			mb = b.ByCause[c] / int64(b.Spans)
		}
		fmt.Fprintf(w, "%-14s %12v %12v %+12d\n",
			span.Cause(c), sim.Time(ma), sim.Time(mb), mb-ma)
	}
}
