package arb

import (
	"testing"

	"memnet/internal/packet"
)

// FuzzArbPick drives an Arbiter from a build's slab (Init, with a
// per-node bias table) and refWRR — the arbiter before its state became
// flat slices and its weight a closure — with the same Pick sequence
// and requires the same pick on every call, for all three policy kinds,
// output indices past 64, both VCs and random candidate sets and head
// packets.
func FuzzArbPick(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			data = data[:4096]
		}
		checkArbTwin(t, data)
	})
}

// twinBias is the technology bias table of the twin's build: nodes 0-5
// (sources 6 and 7 are past its end and have none).
var twinBias = []int64{0, 1, 2, 3, 4, 0}

// checkArbTwin decodes data into a policy and a Pick sequence. The
// header byte picks the kind (b%3), the augmented policy's write
// demotion (1 + b>>2%4) and, when its top bit is set, a port count to
// size the arbiter with (b>>4%8 * 12, short of the ports the calls
// reach). The arbiter is the middle one of a three-arbiter slab sharing
// twinBias; the reference reads the same table through a function.
// Then each call takes an output (next%80), a VC (next&1), a candidate
// count (1 + next%8) and, per candidate, the gap to the previous input
// port (next%12, so ports pass 64 too) and the head's kind, distance
// and source.
func checkArbTwin(t *testing.T, data []byte) {
	t.Helper()
	in := data
	next := func() byte {
		if len(in) == 0 {
			return 0
		}
		c := in[0]
		in = in[1:]
		return c
	}
	hb := next()
	kind := Kind(hb % 3)
	demotion := 1 + int64(hb>>2)%4
	slab := make([]Arbiter, 3)
	for i := range slab {
		slab[i].Init(kind, demotion, twinBias)
	}
	got := &slab[1]
	if hb&0x80 != 0 {
		got.SetPorts(int(hb>>4) % 8 * 12)
	}
	want := refPolicy(kind, Config{
		WriteDemotion: demotion,
		Bias: func(n packet.NodeID) int64 {
			if int(n) < len(twinBias) {
				return twinBias[n]
			}
			return 0
		},
	})
	kinds := [...]packet.Kind{packet.ReadReq, packet.WriteReq, packet.ReadResp, packet.WriteAck}

	var candidates []int
	var heads []*packet.Packet
	for call := 0; len(in) > 0; call++ {
		out := int(next() % 80)
		vc := packet.VC(next() & 1)
		n := 1 + int(next()%8)
		candidates, heads = candidates[:0], heads[:0]
		port := -1
		for k := 0; k < n; k++ {
			port += 1 + int(next()%12)
			candidates = append(candidates, port)
			heads = append(heads, &packet.Packet{
				Kind:     kinds[next()%4],
				Distance: int(next() % 16),
				Src:      packet.NodeID(next() % 8),
			})
		}
		g := got.Pick(out, vc, candidates, heads)
		w := want.Pick(out, vc, candidates, heads)
		if g != w {
			t.Fatalf("call %d (%v, out %d, vc %d, candidates %v): wrr picked %d, reference %d",
				call, kind, out, vc, candidates, g, w)
		}
	}
}
