package stats

import (
	"testing"

	"memnet/internal/packet"
	"memnet/internal/sim"
)

func donePacket(kind packet.Kind, inj, arr, dep, comp sim.Time, hops int) *packet.Packet {
	return &packet.Packet{
		Kind: kind, Injected: inj, ArrivedMem: arr,
		DepartedMem: dep, Completed: comp, Hops: hops,
	}
}

func TestBreakdownMath(t *testing.T) {
	b := Breakdown{ToMem: 10, InMem: 20, FromMem: 30}
	if b.Total() != 60 {
		t.Fatal("total")
	}
	to, in, from := b.Fractions()
	if to != 10.0/60 || in != 20.0/60 || from != 30.0/60 {
		t.Fatal("fractions")
	}
	var zero Breakdown
	a, bb, c := zero.Fractions()
	if a != 0 || bb != 0 || c != 0 {
		t.Fatal("zero fractions must not NaN")
	}
}

func TestCollectorAverages(t *testing.T) {
	c := NewCollector(false)
	c.Complete(donePacket(packet.ReadResp, 0, 10, 30, 40, 3))
	c.Complete(donePacket(packet.WriteAck, 0, 20, 40, 60, 5))
	if c.Completed() != 2 || c.Reads() != 1 || c.Writes() != 1 {
		t.Fatal("counts")
	}
	mb := c.MeanBreakdown()
	if mb.ToMem != 15 || mb.InMem != 20 || mb.FromMem != 15 {
		t.Fatalf("mean breakdown %+v", mb)
	}
	if c.MeanLatency() != 50 {
		t.Fatalf("mean latency %v", c.MeanLatency())
	}
	if c.MeanHops() != 4 {
		t.Fatalf("mean hops %v", c.MeanHops())
	}
	if c.FinishTime() != 60 {
		t.Fatalf("finish %v", c.FinishTime())
	}
}

func TestCollectorEmpty(t *testing.T) {
	c := NewCollector(true)
	if c.MeanLatency() != 0 || c.MeanHops() != 0 {
		t.Fatal("empty collector should report zeros")
	}
}

func TestNegativeComponentPanics(t *testing.T) {
	c := NewCollector(false)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	// DepartedMem before ArrivedMem.
	c.Complete(donePacket(packet.ReadResp, 0, 20, 10, 30, 1))
}
