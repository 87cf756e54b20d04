// Package gen is a wallclock fixture posing as workload-generator code:
// the address stream feeds every simulated request, so its randomness
// must come from the generator's own seeded stream.
package gen

import "math/rand" // want `import of math/rand in simulation package`

type stream struct{ state uint64 }

func (s *stream) int63n(n int64) int64 {
	s.state = s.state*6364136223846793005 + 1442695040888963407
	return int64(s.state>>1) % n
}

// Bad: drawing a block from the global source makes the address
// stream differ between runs with the same seed.
func badBlock(blocks int64) uint64 {
	return uint64(rand.Int63n(blocks)) * 64
}

// Good: the shipped shape — the draw comes from the generator's
// seeded stream.
func goodBlock(s *stream, blocks int64) uint64 {
	return uint64(s.int63n(blocks)) * 64
}
