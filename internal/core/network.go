package core

import (
	"encoding/binary"
	"sync"

	"memnet/internal/config"
	"memnet/internal/scenario"
	"memnet/internal/topology"
)

// maxNetworks bounds the networks generated keeps. The paper's figures
// simulate 14 distinct built-in networks; once the memo holds
// maxNetworks, further networks are built for their caller and not
// kept, so a sweep over many sizes costs what it did without a memo.
const maxNetworks = 64

// network is a generated network: its normalized spec and built graph.
type network struct {
	spec  *scenario.Spec
	graph *topology.Graph
}

// networks memoizes generated by its inputs. Entries are never evicted or
// changed: both halves of a network are read-only once built.
var networks struct {
	sync.Mutex
	m map[string]network
}

// generated returns the network of the built-in topology kind over
// the ordered cube technologies techs, grouped into MetaCube packages
// of group cubes: topology.Generate's spec after topology.BuildScenario.
// Networks are memoized by those inputs, up to maxNetworks of them, so
// every run of one configuration in a process shares one spec and one
// graph. Both are read-only: the graph is immutable (faults route
// around it on Disable's copies) and the spec must not be modified:
// clone it to change it. A hit allocates nothing.
func generated(kind topology.Kind, techs []config.MemTech, group int) (network, error) {
	// The key is the kind, the group and the technologies run-length
	// encoded: two runs for any techOrder.
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
		return n, nil
	}
	spec, err := topology.Generate(kind, techs, group)
	if err != nil {
		return network{}, err
	}
	g, err := topology.BuildScenario(spec)
	if err != nil {
		return network{}, err
	}
	n = network{spec, g}
	networks.Lock()
	defer networks.Unlock()
	// A concurrent caller may have built the same network meanwhile:
	// keep the first, so every caller shares it.
	if prev, ok := networks.m[string(key)]; ok {
		return prev, nil
	}
	if len(networks.m) < maxNetworks {
		if networks.m == nil {
			networks.m = make(map[string]network)
		}
		networks.m[string(key)] = n
	}
	return n, nil
}

// networkOf builds the network of p, whose Tuning is resolved.
func networkOf(p *Params) (network, error) {
	if p.Scenario != nil {
		s := p.Scenario.Clone()
		g, err := topology.BuildScenario(s)
		return network{s, g}, err
	}
	// The technologies of the common sizes stay on the stack: a
	// repeated configuration builds its network with no allocation.
	var buf [64]config.MemTech
	techs, err := techOrder(buf[:0], &p.Sys)
	if err != nil {
		return network{}, err
	}
	return generated(p.Topo, techs, p.Tuning.MetaCubeGroup)
}
