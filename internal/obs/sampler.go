package obs

import (
	"fmt"
	"io"
	"strings"

	"memnet/internal/sim"
)

// Sampler snapshots every registered gauge and vector at fixed sim-time
// intervals into compact columnar series. It is driven by the engine's
// probe hook (sim.Engine.SetProbe), which fires between events whenever
// the clock crosses a sample boundary — the sampler adds no events to
// the queue, so enabling it cannot reorder the simulation or change its
// event count.
type Sampler struct {
	interval sim.Time
	times    []sim.Time

	gauges []gauge
	series [][]int64 // one column per gauge, row per tick

	vecs    []vec
	vecRows [][][]uint64 // per vec: rows of snapshot copies
}

// StartSampler arms sampling on eng at the given interval. Every gauge
// and vector registered so far is sampled; call it after all
// registrations (typically last in the build). A nil registry returns a
// nil sampler, and nil Sampler methods are no-ops.
func (r *Registry) StartSampler(eng *sim.Engine, interval sim.Time) *Sampler {
	if r == nil {
		return nil
	}
	if interval <= 0 {
		interval = DefaultSampleInterval
	}
	s := &Sampler{
		interval: interval,
		gauges:   r.gauges,
		series:   make([][]int64, len(r.gauges)),
		vecs:     r.vecs,
		vecRows:  make([][][]uint64, len(r.vecs)),
	}
	eng.SetProbe(interval, s.tick)
	return s
}

// tick records one row. at is the sample boundary; the engine clock
// reads the same instant for the duration of the call.
func (s *Sampler) tick(at sim.Time) {
	s.times = append(s.times, at)
	for i := range s.gauges {
		s.series[i] = append(s.series[i], s.gauges[i].probe())
	}
	for i := range s.vecs {
		row := append([]uint64(nil), s.vecs[i].probe()...)
		s.vecRows[i] = append(s.vecRows[i], row)
	}
}

// Interval reports the sampling period.
func (s *Sampler) Interval() sim.Time {
	if s == nil {
		return 0
	}
	return s.interval
}

// Samples reports the number of rows recorded.
func (s *Sampler) Samples() int {
	if s == nil {
		return 0
	}
	return len(s.times)
}

// VecRows returns the recorded snapshot rows for the named vector, or
// nil.
func (s *Sampler) VecRows(name string) [][]uint64 {
	if s == nil {
		return nil
	}
	for i := range s.vecs {
		if s.vecs[i].name == name {
			return s.vecRows[i]
		}
	}
	return nil
}

// Jain computes Jain's fairness index (Σx)²/(n·Σx²) over non-negative
// shares: 1.0 for perfectly equal service, 1/n when one member receives
// everything. An all-zero row reports 1 (nothing was unfair).
func Jain(xs []uint64) float64 {
	if len(xs) == 0 {
		return 1
	}
	var sum, sumSq float64
	for _, x := range xs {
		v := float64(x)
		sum += v
		sumSq += v * v
	}
	if sumSq == 0 {
		return 1
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}

// FairnessSeries computes Jain's index per sample interval over the
// named vector's deltas (the cumulative snapshots differenced row to
// row): the time-resolved view of the paper's parking-lot starvation.
// The first row is differenced against zero.
func (s *Sampler) FairnessSeries(name string) []float64 {
	rows := s.VecRows(name)
	if rows == nil {
		return nil
	}
	out := make([]float64, len(rows))
	prev := make([]uint64, 0)
	delta := make([]uint64, 0)
	for i, row := range rows {
		delta = delta[:0]
		for j, v := range row {
			d := v
			if j < len(prev) {
				d -= prev[j]
			}
			delta = append(delta, d)
		}
		out[i] = Jain(delta)
		prev = append(prev[:0], row...)
	}
	return out
}

// WriteCSV dumps the sampled series: one row per tick, columns in
// registration order — time_ps, every gauge, every vector element
// (name[label]), and a jain(name) fairness column per vector.
func (s *Sampler) WriteCSV(w io.Writer) error {
	if s == nil {
		return nil
	}
	var b strings.Builder
	b.WriteString("time_ps")
	for i := range s.gauges {
		b.WriteByte(',')
		b.WriteString(s.gauges[i].name)
	}
	for i := range s.vecs {
		v := &s.vecs[i]
		for _, lbl := range v.labels {
			fmt.Fprintf(&b, ",%s[%s]", v.name, lbl)
		}
		fmt.Fprintf(&b, ",jain(%s)", v.name)
	}
	b.WriteByte('\n')
	fair := make([][]float64, len(s.vecs))
	for i := range s.vecs {
		fair[i] = s.FairnessSeries(s.vecs[i].name)
	}
	for row, t := range s.times {
		fmt.Fprintf(&b, "%d", int64(t))
		for _, col := range s.series {
			fmt.Fprintf(&b, ",%d", col[row])
		}
		for i := range s.vecs {
			for _, v := range s.vecRows[i][row] {
				fmt.Fprintf(&b, ",%d", v)
			}
			fmt.Fprintf(&b, ",%.6f", fair[i][row])
		}
		b.WriteByte('\n')
	}
	_, err := io.WriteString(w, b.String())
	return err
}
