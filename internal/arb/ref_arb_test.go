package arb

import "memnet/internal/packet"

// refWRR is the arbiter as it was before its state became flat slices:
// the fairness counters live in nested maps keyed by (output, VC) and
// input port. Only Pick's signature is adapted, to the heads slice.
// FuzzArbPick drives it beside wrr and requires the same pick on every
// call.
type refWRR struct {
	weight WeightFunc
	strict bool
	state  map[arbKey]map[int]int64
	rot    map[arbKey]int
}

type arbKey struct {
	out int
	vc  packet.VC
}

func (a *refWRR) Pick(out int, vc packet.VC, candidates []int, heads []*packet.Packet) int {
	if len(candidates) == 1 {
		return candidates[0]
	}
	key := arbKey{out: out, vc: vc}
	if a.strict {
		if a.rot == nil {
			a.rot = make(map[arbKey]int)
		}
		rot := a.rot[key]
		best := -1
		var bestVal int64
		for k := 0; k < len(candidates); k++ {
			j := (rot + k) % len(candidates)
			w := a.weight(heads[j])
			if best == -1 || w > bestVal {
				best = candidates[j]
				bestVal = w
			}
		}
		a.rot[key] = rot + 1
		return best
	}
	if a.state == nil {
		a.state = make(map[arbKey]map[int]int64)
	}
	cur := a.state[key]
	if cur == nil {
		cur = make(map[int]int64)
		a.state[key] = cur
	}

	var total int64
	best := -1
	var bestVal int64
	for k, c := range candidates {
		w := a.weight(heads[k])
		if w < 1 {
			w = 1
		}
		cur[c] += w
		total += w
		if best == -1 || cur[c] > bestVal {
			best = c
			bestVal = cur[c]
		}
	}
	cur[best] -= total
	return best
}
