package core

import (
	"encoding/binary"
	"sync"

	"memnet/internal/config"
	"memnet/internal/scenario"
	"memnet/internal/topology"
)

// maxNetworks bounds the networks Network keeps. The paper's figures
// simulate 14 distinct built-in networks; once the memo holds
// maxNetworks, further networks are built for their caller and not
// kept, so a sweep over many sizes costs what it did without a memo.
const maxNetworks = 64

// network is a generated network: its normalized spec and built graph.
type network struct {
	spec  *scenario.Spec
	graph *topology.Graph
}

// networks memoizes Network by its inputs. Entries are never evicted or
// changed: both halves of a network are read-only once built.
var networks struct {
	sync.Mutex
	m map[string]network
}

// Network returns the normalized spec and the graph of the built-in
// topology kind over the ordered cube technologies techs, grouped into
// MetaCube packages of group cubes: topology.Generate's output after
// topology.BuildScenario. Networks are memoized by those inputs, up to
// maxNetworks of them, so every run of one configuration in a process
// shares one spec and one graph. Both are read-only: the graph is
// immutable (faults route around it on Disable's copies) and the spec
// must not be modified; call GraphSpec for a spec of one's own. A hit
// allocates nothing.
func Network(kind topology.Kind, techs []config.MemTech, group int) (*scenario.Spec, *topology.Graph, error) {
	// The key is the kind, the group and the technologies run-length
	// encoded: two runs for any TechOrder.
	var buf [32]byte
	key := append(buf[:0], byte(kind))
	key = binary.AppendUvarint(key, uint64(group))
	for i := 0; i < len(techs); {
		j := i + 1
		for j < len(techs) && techs[j] == techs[i] {
			j++
		}
		key = append(key, byte(techs[i]))
		key = binary.AppendUvarint(key, uint64(j-i))
		i = j
	}
	networks.Lock()
	n, ok := networks.m[string(key)]
	networks.Unlock()
	if ok {
		return n.spec, n.graph, nil
	}
	spec, err := topology.Generate(kind, techs, group)
	if err != nil {
		return nil, nil, err
	}
	g, err := topology.BuildScenario(spec)
	if err != nil {
		return nil, nil, err
	}
	n = network{spec, g}
	networks.Lock()
	defer networks.Unlock()
	// A concurrent caller may have built the same network meanwhile:
	// keep the first, so every caller shares it.
	if prev, ok := networks.m[string(key)]; ok {
		return prev.spec, prev.graph, nil
	}
	if len(networks.m) < maxNetworks {
		if networks.m == nil {
			networks.m = make(map[string]network)
		}
		networks.m[string(key)] = n
	}
	return n.spec, n.graph, nil
}

// NetworkOf returns the normalized spec and the graph a run of p
// simulates, the pair GraphSpec and topology.BuildScenario make. A
// built-in run's come from Network and are shared and read-only; a
// scenario run gets its own, built from a clone of p.Scenario.
func NetworkOf(p *Params) (*scenario.Spec, *topology.Graph, error) {
	if p.Scenario != nil {
		s := p.Scenario.Clone()
		g, err := topology.BuildScenario(s)
		if err != nil {
			return nil, nil, err
		}
		return s, g, nil
	}
	// TechOrder's slice for the common sizes stays on the stack: a
	// repeated configuration builds its network with no allocation.
	var buf [64]config.MemTech
	techs, err := appendTechOrder(buf[:0], &p.Sys)
	if err != nil {
		return nil, nil, err
	}
	return Network(p.Topo, techs, metaCubeGroup(p))
}
