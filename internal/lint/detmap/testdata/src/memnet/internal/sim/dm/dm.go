// Package dm is a detmap fixture posing as a simulation package.
package dm

import "sort"

// Bad: iteration order leaks into a float accumulation.
func sumValues(m map[string]float64) float64 {
	var sum float64
	for _, v := range m { // want `nondeterministic iteration over map m`
		sum += v
	}
	return sum
}

// Bad: iteration order drives calls with side effects.
func applyAll(m map[int]int, f func(int, int)) {
	for k, v := range m { // want `nondeterministic iteration over map m`
		f(k, v)
	}
}

// Bad: the collected slice is never sorted.
func unsortedKeys(m map[string]int) []string {
	var keys []string
	for k := range m { // want `nondeterministic iteration over map m`
		keys = append(keys, k)
	}
	return keys
}

// Good: the canonical collect-then-sort pattern.
func sortedKeys(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Good: guarded collection of structs, sorted with sort.Slice — the
// shape of a hot-block harvest.
func hotBlocks(counts map[uint64]int, threshold int) []uint64 {
	type hot struct {
		blk   uint64
		count int
	}
	var hots []hot
	for blk, c := range counts {
		if c < threshold {
			continue
		}
		hots = append(hots, hot{blk, c})
	}
	sort.Slice(hots, func(i, j int) bool {
		if hots[i].count != hots[j].count {
			return hots[i].count > hots[j].count
		}
		return hots[i].blk < hots[j].blk
	})
	out := make([]uint64, 0, len(hots))
	for _, h := range hots {
		out = append(out, h.blk)
	}
	return out
}

// Good: annotated order-independent reduction.
func totalInt(m map[string]uint64) uint64 {
	var sum uint64
	//lint:sorted integer addition is commutative; order cannot affect the result
	for _, v := range m {
		sum += v
	}
	return sum
}
