package arb

import (
	"math"
	"testing"
	"testing/quick"

	"memnet/internal/packet"
)

// heads lists the head packets of the candidates, in candidate order.
func heads(ps ...*packet.Packet) []*packet.Packet { return ps }

func TestRoundRobinFairness(t *testing.T) {
	p := New(RoundRobin, Config{})
	a := &packet.Packet{Kind: packet.ReadResp, Distance: 1}
	b := &packet.Packet{Kind: packet.ReadResp, Distance: 9}
	counts := map[int]int{}
	for i := 0; i < 100; i++ {
		counts[p.Pick(0, packet.VCResponse, []int{0, 1}, heads(a, b))]++
	}
	if counts[0] != 50 || counts[1] != 50 {
		t.Fatalf("round robin unfair: %v", counts)
	}
}

func TestRoundRobinPerOutputState(t *testing.T) {
	p := New(RoundRobin, Config{})
	a := &packet.Packet{Kind: packet.ReadResp}
	b := &packet.Packet{Kind: packet.ReadResp}
	// Alternation at output 0 must not disturb output 1.
	first0 := p.Pick(0, packet.VCResponse, []int{0, 1}, heads(a, b))
	first1 := p.Pick(1, packet.VCResponse, []int{0, 1}, heads(a, b))
	if first0 != first1 {
		t.Fatal("fresh outputs should start identically")
	}
	second0 := p.Pick(0, packet.VCResponse, []int{0, 1}, heads(a, b))
	if second0 == first0 {
		t.Fatal("output 0 should alternate")
	}
}

func TestDistancePicksFarthest(t *testing.T) {
	p := New(Distance, Config{})
	near := &packet.Packet{Kind: packet.ReadResp, Distance: 1}
	far := &packet.Packet{Kind: packet.ReadResp, Distance: 9}
	for i := 0; i < 10; i++ {
		if got := p.Pick(0, packet.VCResponse, []int{0, 1}, heads(near, far)); got != 1 {
			t.Fatalf("iteration %d picked %d, want the far packet", i, got)
		}
	}
}

func TestDistanceTieRotation(t *testing.T) {
	p := New(Distance, Config{})
	a := &packet.Packet{Kind: packet.ReadResp, Distance: 4}
	b := &packet.Packet{Kind: packet.ReadResp, Distance: 4}
	counts := map[int]int{}
	for i := 0; i < 100; i++ {
		counts[p.Pick(0, packet.VCResponse, []int{0, 1}, heads(a, b))]++
	}
	if counts[0] == 0 || counts[1] == 0 {
		t.Fatalf("ties must rotate: %v", counts)
	}
}

func TestAugmentedTechBias(t *testing.T) {
	// An NVM-sourced response with a shorter distance should beat a
	// DRAM response with a slightly longer one.
	cfg := Config{
		Bias: func(n packet.NodeID) int64 {
			if n == 2 {
				return 6 // NVM cube
			}
			return 0
		},
	}
	p := New(DistanceAugmented, cfg)
	dram := &packet.Packet{Kind: packet.ReadResp, Src: 1, Distance: 4}
	nvm := &packet.Packet{Kind: packet.ReadResp, Src: 2, Distance: 1}
	if got := p.Pick(0, packet.VCResponse, []int{0, 1}, heads(dram, nvm)); got != 1 {
		t.Fatal("NVM bias should win")
	}
	// Bias applies to responses only: an NVM-bound *request* gets none.
	reqNVM := &packet.Packet{Kind: packet.ReadReq, Src: 2, Distance: 1}
	reqDRAM := &packet.Packet{Kind: packet.ReadReq, Src: 1, Distance: 4}
	if got := p.Pick(1, packet.VCRequest, []int{0, 1}, heads(reqNVM, reqDRAM)); got != 1 {
		t.Fatal("requests must use raw distance")
	}
}

func TestAugmentedWriteDemotion(t *testing.T) {
	p := New(DistanceAugmented, Config{WriteDemotion: 4})
	write := &packet.Packet{Kind: packet.WriteReq, Distance: 8} // weight (1+8)/4 = 2
	read := &packet.Packet{Kind: packet.ReadReq, Distance: 3}   // weight 4
	if got := p.Pick(0, packet.VCRequest, []int{0, 1}, heads(write, read)); got != 1 {
		t.Fatal("demoted write should lose to the read")
	}
	// Demotion never drops a weight below 1.
	tiny := &packet.Packet{Kind: packet.WriteAck, Distance: 0}
	other := &packet.Packet{Kind: packet.WriteAck, Distance: 0}
	got := p.Pick(1, packet.VCResponse, []int{0, 1}, heads(tiny, other))
	if got != 0 && got != 1 {
		t.Fatal("pick outside candidates")
	}
}

func TestSingleCandidateShortCircuit(t *testing.T) {
	for _, k := range []Kind{RoundRobin, Distance, DistanceAugmented} {
		p := New(k, Config{})
		pk := &packet.Packet{Kind: packet.ReadReq}
		if got := p.Pick(0, packet.VCRequest, []int{3}, heads(pk)); got != 3 {
			t.Fatalf("%v: single candidate not returned", k)
		}
	}
}

func TestKindString(t *testing.T) {
	for _, k := range []Kind{RoundRobin, Distance, DistanceAugmented} {
		if k.String() == "arb(?)" {
			t.Fatalf("missing name for %d", k)
		}
	}
	if Kind(9).String() != "arb(?)" {
		t.Fatal("unknown kind fallback")
	}
}

func TestUnknownKindPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(Kind(99), Config{})
}

// Property: every policy always returns a member of candidates.
func TestPickMembership(t *testing.T) {
	policies := []Policy{
		New(RoundRobin, Config{}),
		New(Distance, Config{}),
		New(DistanceAugmented, Config{WriteDemotion: 2}),
	}
	f := func(out uint8, dists []uint8) bool {
		if len(dists) == 0 {
			return true
		}
		if len(dists) > 8 {
			dists = dists[:8]
		}
		pkts := make([]*packet.Packet, len(dists))
		cands := make([]int, len(dists))
		for i, d := range dists {
			kind := packet.ReadResp
			if d%3 == 0 {
				kind = packet.WriteAck
			}
			pkts[i] = &packet.Packet{Kind: kind, Distance: int(d % 17), Src: packet.NodeID(d % 5)}
			cands[i] = i
		}
		for _, p := range policies {
			got := p.Pick(int(out%4), packet.VCResponse, cands, heads(pkts...))
			if got < 0 || got >= len(pkts) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: smooth WRR (round-robin) service share is proportional under
// sustained backlog — with equal weights, shares stay within one pick.
func TestRoundRobinShareBound(t *testing.T) {
	p := New(RoundRobin, Config{})
	pk := &packet.Packet{Kind: packet.ReadResp}
	counts := make([]int, 3)
	for i := 0; i < 3001; i++ {
		counts[p.Pick(0, packet.VCResponse, []int{0, 1, 2}, heads(pk, pk, pk))]++
	}
	for i := 0; i < 3; i++ {
		if counts[i] < 1000 || counts[i] > 1001 {
			t.Fatalf("share skew: %v", counts)
		}
	}
}

// TestPickAllocationFree: once an arbiter has seen an output and its
// inputs, further picks allocate nothing, for every policy kind.
func TestPickAllocationFree(t *testing.T) {
	cands := []int{0, 2, 5, 7}
	hs := []*packet.Packet{
		{Kind: packet.ReadResp, Distance: 1, Src: 2},
		{Kind: packet.WriteAck, Distance: 4, Src: 3},
		{Kind: packet.ReadResp, Distance: 4, Src: 4},
		{Kind: packet.ReadResp, Distance: 2, Src: 5},
	}
	cfg := Config{WriteDemotion: 2, Bias: func(n packet.NodeID) int64 { return int64(n % 2) }}
	for _, k := range []Kind{RoundRobin, Distance, DistanceAugmented} {
		p := New(k, cfg)
		p.Pick(3, packet.VCResponse, cands, hs) // warm-up sizes the state
		if n := testing.AllocsPerRun(100, func() {
			p.Pick(3, packet.VCResponse, cands, hs)
		}); n != 0 {
			t.Errorf("%v: %v allocations per Pick, want 0", k, n)
		}
	}
}

// TestCounterOverflowPanics: the 32-bit tables panic instead of
// wrapping, for a strict rotation at its limit and for a smooth counter
// pushed past it; a pick just below either limit succeeds.
func TestCounterOverflowPanics(t *testing.T) {
	a, b := &packet.Packet{Kind: packet.ReadResp}, &packet.Packet{Kind: packet.ReadResp}
	pick := func(p *Arbiter) { p.Pick(0, packet.VCResponse, []int{0, 1}, heads(a, b)) }
	mustPanic := func(what string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", what)
			}
		}()
		fn()
	}
	key := int(packet.VCResponse)

	strict := New(Distance, Config{}).(*Arbiter)
	pick(strict)
	strict.rot[key] = math.MaxInt32 - 1
	pick(strict)
	if strict.rot[key] != math.MaxInt32 {
		t.Fatalf("rotation %d, want %d", strict.rot[key], math.MaxInt32)
	}
	mustPanic("a pick at the rotation limit", func() { pick(strict) })

	smooth := New(RoundRobin, Config{}).(*Arbiter)
	pick(smooth)
	smooth.state[key*smooth.width+1] = math.MaxInt32 - 1
	pick(smooth) // input 1 reaches the limit and wins
	smooth.state[key*smooth.width+1] = math.MaxInt32
	mustPanic("a smooth counter past the limit", func() { pick(smooth) })
}
