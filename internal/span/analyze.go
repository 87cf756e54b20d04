// Critical-path analysis over completed spans: per-cause latency
// waterfalls, per-location blame tables, attribution coverage,
// worst-transaction selection, and per-transaction narratives. The
// analyzer runs once per file in the reporting layer (cmd/mntrace,
// mnsim -trace), not on the simulation hot path.

package span

import (
	"fmt"
	"io"
	"sort"

	"memnet/internal/sim"
)

// LocBlame aggregates attributed time at one location (edge, router, or
// vault quadrant), split by cause.
type LocBlame struct {
	// Loc is the location label ("h>1", "r3", "v3.q1", "host").
	Loc string
	// ByCause is attributed picoseconds per Cause at this location.
	ByCause [NumCauses]int64
	// Total is the sum over ByCause.
	Total int64
}

// Analysis summarizes a set of completed spans.
type Analysis struct {
	// Spans is the number of transactions analyzed.
	Spans int
	// TotalPs sums end-to-end latency (Completed - Injected) over spans.
	TotalPs int64
	// AttributedPs sums segment durations that fall inside the
	// end-to-end window (every cause except HostWindow, which precedes
	// injection by definition).
	AttributedPs int64
	// WindowPs sums HostWindow segment durations (pre-injection wait).
	WindowPs int64
	// ByCause is attributed picoseconds per cause, HostWindow included.
	ByCause [NumCauses]int64
	// Locs is the in-network blame table (HostWindow excluded), sorted
	// by descending Total (ties by Loc).
	Locs []LocBlame
}

// Analyze aggregates spans into per-cause totals and a per-location
// blame table.
func Analyze(spans []TxSpan) *Analysis {
	a := &Analysis{Spans: len(spans)}
	//lint:coldpath one-shot reporting aggregation, not a per-event path
	byLoc := make(map[string]int)
	for i := range spans {
		sp := &spans[i]
		a.TotalPs += int64(sp.Latency())
		for _, sg := range sp.Segs {
			d := int64(sg.Dur)
			a.ByCause[sg.Cause] += d
			if sg.Cause == HostWindow {
				// Pre-injection wait: summarized in WindowPs, excluded
				// from the in-network blame table.
				a.WindowPs += d
				continue
			}
			a.AttributedPs += d
			li, ok := byLoc[sg.Loc]
			if !ok {
				li = len(a.Locs)
				byLoc[sg.Loc] = li
				a.Locs = append(a.Locs, LocBlame{Loc: sg.Loc})
			}
			a.Locs[li].ByCause[sg.Cause] += d
			a.Locs[li].Total += d
		}
	}
	sort.Slice(a.Locs, func(i, j int) bool {
		if a.Locs[i].Total != a.Locs[j].Total {
			return a.Locs[i].Total > a.Locs[j].Total
		}
		return a.Locs[i].Loc < a.Locs[j].Loc
	})
	return a
}

// Attribution is the fraction of total end-to-end latency covered by
// attributed (non-window) segments, in [0,1]. It is 1 when every
// picosecond between injection and completion has an enumerated cause.
func (a *Analysis) Attribution() float64 {
	if a.TotalPs == 0 {
		return 1
	}
	return float64(a.AttributedPs) / float64(a.TotalPs)
}

// MeanLatencyPs is the mean end-to-end latency over analyzed spans.
func (a *Analysis) MeanLatencyPs() float64 {
	if a.Spans == 0 {
		return 0
	}
	return float64(a.TotalPs) / float64(a.Spans)
}

// WorstN returns the n highest-latency spans, descending (ties broken
// by ascending ID so the selection is deterministic).
func WorstN(spans []TxSpan, n int) []TxSpan {
	out := make([]TxSpan, len(spans))
	copy(out, spans)
	sort.Slice(out, func(i, j int) bool {
		li, lj := out[i].Latency(), out[j].Latency()
		if li != lj {
			return li > lj
		}
		return out[i].ID < out[j].ID
	})
	if n < len(out) {
		out = out[:n]
	}
	return out
}

// Narrate prints each span segment by segment: when each wait started
// relative to injection, how long it lasted, and where.
func Narrate(w io.Writer, spans []TxSpan) {
	for _, sp := range spans {
		fmt.Fprintf(w, "\ntx %d  %s addr=%#x dst=%d  latency %v  (injected %v, done %v)\n",
			sp.ID, sp.Kind, sp.Addr, sp.Dst, sp.Latency(), sp.Injected, sp.Completed)
		for _, sg := range sp.Segs {
			// Offsets are relative to injection; the host-window segment
			// precedes it, so its offset renders negative.
			off := sg.At - sp.Injected
			sign := "+"
			if off < 0 {
				sign, off = "-", -off
			}
			fmt.Fprintf(w, "  %s%-12v %-14s %-10s vc%d  %v\n",
				sign, off, sg.Cause, sg.Loc, sg.VC, sg.Dur)
		}
	}
}

// Check validates structural invariants on a parsed span file: the
// completion window is non-negative, every segment has positive
// duration and lies within [earliest window start, completion], and
// segments are ordered by start time. It returns the first violation.
func Check(spans []TxSpan) error {
	for i := range spans {
		sp := &spans[i]
		if sp.Completed < sp.Injected {
			return fmt.Errorf("span %d: completed %v before injected %v", sp.ID, sp.Completed, sp.Injected)
		}
		prev := sim.Time(-1 << 62)
		for j, sg := range sp.Segs {
			if sg.Dur <= 0 {
				return fmt.Errorf("span %d seg %d (%v@%s): non-positive duration %v", sp.ID, j, sg.Cause, sg.Loc, sg.Dur)
			}
			if sg.At < prev {
				return fmt.Errorf("span %d seg %d (%v@%s): start %v out of order", sp.ID, j, sg.Cause, sg.Loc, sg.At)
			}
			prev = sg.At
			if sg.At+sg.Dur > sp.Completed {
				return fmt.Errorf("span %d seg %d (%v@%s): ends %v past completion %v", sp.ID, j, sg.Cause, sg.Loc, sg.At+sg.Dur, sp.Completed)
			}
		}
	}
	return nil
}
