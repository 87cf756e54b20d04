// Package stats collects per-transaction measurements and produces the
// paper's reporting quantities: the to-memory / in-memory / from-memory
// latency decomposition of Fig. 5, average round-trip latency, and
// throughput (completion time of a fixed trace), from which the
// experiment harness computes speedups.
package stats

import (
	"fmt"

	"memnet/internal/packet"
	"memnet/internal/sim"
)

// Breakdown is the three-way latency split of Fig. 5 plus the total.
type Breakdown struct {
	ToMem   sim.Time
	InMem   sim.Time
	FromMem sim.Time
}

// Total returns the end-to-end latency.
func (b Breakdown) Total() sim.Time { return b.ToMem + b.InMem + b.FromMem }

// Fractions returns the three components normalized to the total.
func (b Breakdown) Fractions() (to, in, from float64) {
	t := float64(b.Total())
	if t == 0 {
		return 0, 0, 0
	}
	return float64(b.ToMem) / t, float64(b.InMem) / t, float64(b.FromMem) / t
}

// Collector accumulates completed transactions for one simulated port.
type Collector struct {
	completed uint64
	reads     uint64
	writes    uint64

	sumTo, sumIn, sumFrom sim.Time
	sumHops               uint64

	finish sim.Time // completion time of the last transaction
}

// NewCollector returns an empty collector. Its argument is unused: the
// collector keeps no samples, and perfbench's layer bench still passes
// one.
func NewCollector(bool) *Collector {
	return &Collector{}
}

// Complete records a finished transaction from its response packet. The
// packet must carry all four timestamps.
func (c *Collector) Complete(p *packet.Packet) {
	c.completed++
	if p.Kind.IsRead() {
		c.reads++
	} else {
		c.writes++
	}
	to := p.ArrivedMem - p.Injected
	in := p.DepartedMem - p.ArrivedMem
	from := p.Completed - p.DepartedMem
	if to < 0 || in < 0 || from < 0 {
		panic(fmt.Sprintf("stats: negative latency component for %v: to=%v in=%v from=%v",
			p, to, in, from))
	}
	c.sumTo += to
	c.sumIn += in
	c.sumFrom += from
	c.sumHops += uint64(p.Hops)
	if p.Completed > c.finish {
		c.finish = p.Completed
	}
}

// Completed reports the number of recorded transactions.
func (c *Collector) Completed() uint64 { return c.completed }

// Reads and Writes report the transaction mix.
func (c *Collector) Reads() uint64  { return c.reads }
func (c *Collector) Writes() uint64 { return c.writes }

// FinishTime reports the completion time of the last transaction — the
// experiment harness's execution-time metric.
func (c *Collector) FinishTime() sim.Time { return c.finish }

// MeanBreakdown returns the average latency decomposition.
func (c *Collector) MeanBreakdown() Breakdown {
	if c.completed == 0 {
		return Breakdown{}
	}
	n := sim.Time(c.completed)
	return Breakdown{ToMem: c.sumTo / n, InMem: c.sumIn / n, FromMem: c.sumFrom / n}
}

// MeanLatency returns the average end-to-end latency.
func (c *Collector) MeanLatency() sim.Time { return c.MeanBreakdown().Total() }

// MeanHops returns the average response-path hop count per transaction.
func (c *Collector) MeanHops() float64 {
	if c.completed == 0 {
		return 0
	}
	return float64(c.sumHops) / float64(c.completed)
}
