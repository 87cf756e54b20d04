package arb

import "memnet/internal/packet"

// refWRR is the arbiter as it was before its state became flat slices
// and its weight closures became Arbiter.weight: the fairness counters
// live in nested maps keyed by (output, VC) and input port, and the
// weight is the closure refPolicy builds. Only Pick's signature is
// adapted, to the heads slice. FuzzArbPick drives it beside Arbiter and
// requires the same pick on every call.
type refWRR struct {
	weight func(p *packet.Packet) int64
	strict bool
	state  map[arbKey]map[int]int64
	rot    map[arbKey]int
}

// refPolicy is New as it was before the arbiter slab: one weight
// closure per policy, and bias, when non-nil, one more.
func refPolicy(kind Kind, cfg Config) *refWRR {
	switch kind {
	case RoundRobin:
		return &refWRR{weight: func(*packet.Packet) int64 { return 1 }}
	case Distance:
		return &refWRR{strict: true, weight: func(p *packet.Packet) int64 {
			return 1 + int64(p.Distance)
		}}
	case DistanceAugmented:
		demote := cfg.WriteDemotion
		if demote < 1 {
			demote = 1
		}
		return &refWRR{strict: true, weight: func(p *packet.Packet) int64 {
			w := 1 + int64(p.Distance)
			if cfg.Bias != nil && p.Kind.IsResponse() {
				w += cfg.Bias(p.Src)
			}
			if p.Kind.IsWrite() {
				w = w / demote
				if w < 1 {
					w = 1
				}
			}
			return w
		}}
	default:
		panic("arb: unknown kind")
	}
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
