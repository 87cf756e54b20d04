package sim

import "testing"

// BenchmarkHeapChurn keeps a standing population of future events: every
// fired event schedules a replacement at a pseudo-random future offset,
// so each op is one pop + one push at depth. Its 1–1000 ps offsets crowd
// one or two wheel slots, so at depth most inserts overflow into the
// 4-ary heap: this measures the fallback path.
func BenchmarkHeapChurn(b *testing.B) {
	for _, depth := range []int{16, 256, 4096} {
		b.Run(benchName(depth), func(b *testing.B) {
			b.ReportAllocs()
			eng := NewEngine()
			rng := uint64(1)
			next := func() Time {
				// xorshift keeps delays varied without allocation.
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				return Time(rng%1000 + 1)
			}
			n := 0
			var fn func()
			fn = func() {
				n++
				if n < b.N {
					eng.Schedule(next(), fn)
				}
			}
			for i := 0; i < depth; i++ {
				eng.Schedule(next(), fn)
			}
			b.ResetTimer()
			eng.Run()
		})
	}
}

func benchName(depth int) string {
	switch depth {
	case 16:
		return "depth=16"
	case 256:
		return "depth=256"
	default:
		return "depth=4096"
	}
}

// BenchmarkFastLane measures the zero-delay path: each event schedules a
// same-instant follow-on, which must bypass the wheel and heap entirely.
func BenchmarkFastLane(b *testing.B) {
	b.ReportAllocs()
	eng := NewEngine()
	n := 0
	var fn func()
	fn = func() {
		n++
		if n < b.N {
			eng.Schedule(0, fn)
		}
	}
	b.ResetTimer()
	eng.Schedule(0, fn)
	eng.Run()
}

// BenchmarkArgHandler measures the typed-argument form used by the
// link/vault hot paths: one bound callback reused across schedules, the
// operand carried in the event. Must be allocation-free for pointer args.
func BenchmarkArgHandler(b *testing.B) {
	b.ReportAllocs()
	eng := NewEngine()
	type payload struct{ n int }
	p := &payload{}
	var fn ArgHandler
	fn = func(arg any) {
		pl := arg.(*payload)
		pl.n++
		if pl.n < b.N {
			eng.ScheduleArg(1, fn, pl)
		}
	}
	b.ResetTimer()
	eng.ScheduleArg(1, fn, p)
	eng.Run()
	if p.n != b.N {
		b.Fatalf("fired %d, want %d", p.n, b.N)
	}
}

// BenchmarkMixedLoad approximates the simulator's real profile: a bursty
// mix of zero-delay handoffs (router/link kicks) and short future delays
// (serialization, bank access), with a modest standing heap.
func BenchmarkMixedLoad(b *testing.B) {
	b.ReportAllocs()
	eng := NewEngine()
	n := 0
	var hop func()
	var settle func()
	hop = func() {
		n++
		if n >= b.N {
			return
		}
		// Two same-instant handoffs per future event mirrors the
		// router-sweep / link-pump cascade.
		if n%3 != 0 {
			eng.Schedule(0, hop)
			return
		}
		eng.Schedule(Time(n%97+1), settle)
	}
	settle = hop
	b.ResetTimer()
	for i := 0; i < 32 && i < b.N; i++ {
		eng.Schedule(Time(i+1), hop)
	}
	eng.Run()
}

// BenchmarkSimulatorDelays replays the delay mix of a recorded
// 300k-transaction tree run: 41% of events are zero-delay handoffs and
// the rest land 256 ps–131 ns ahead, with 32 events pending. Each fired
// event schedules one replacement, so every op is one pop and one push.
// The other benchmarks use 1–1000 ps delays, which crowd one or two
// wheel slots; this one spreads events over the wheel as a real run does.
func BenchmarkSimulatorDelays(b *testing.B) {
	b.ReportAllocs()
	var delays [1024]Time
	rng := uint64(1)
	for i := range delays {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		if rng%100 < 41 {
			continue // zero delay: the fast lane
		}
		delays[i] = 256 + Time(rng>>8%(131_000-256))
	}
	eng := NewEngine()
	n := 0
	var fn func()
	fn = func() {
		n++
		if n < b.N {
			eng.Schedule(delays[n&(len(delays)-1)], fn)
		}
	}
	for i := 0; i < 32; i++ {
		eng.Schedule(delays[i], fn)
	}
	b.ResetTimer()
	eng.Run()
}
