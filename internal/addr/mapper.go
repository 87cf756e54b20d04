// Package addr implements the address-to-resource mapping of a single
// memory port's slice: capacity-proportional interleaving of 256-byte
// blocks across the port's cubes (so a cube with 4x capacity receives 4x
// the requests, matching the paper's uniform-by-address assumption), and
// the cube-internal block -> quadrant/bank/row decomposition.
package addr

import (
	"fmt"

	"memnet/internal/config"
	"memnet/internal/packet"
)

// CubeSlot describes one cube participating in the interleave.
type CubeSlot struct {
	Node packet.NodeID
	Tech config.MemTech
	// Units is the cube's capacity weight in DRAM-cube units
	// (1 for DRAM, 4 for a 4x-capacity NVM cube).
	Units int
}

// Mapper translates physical addresses within a port slice to
// (cube, quadrant, bank, row) coordinates.
type Mapper struct {
	interleave   uint64
	blocksPerRow uint64
	banksPerCube int
	banksPerQuad int

	slots      []CubeSlot
	units      []unit // length totalUnits, in interleave order
	totalUnits int

	// techOf is each slot's technology, indexed by node ID up to the
	// highest slot's; other nodes read DRAM, the zero MemTech.
	techOf []config.MemTech
}

// unit is one interleave unit: the slot whose cube holds it, and its
// ordinal within that cube.
type unit struct {
	slot, offset int
}

// NewMapper builds a mapper for the given cube set. The slot order
// determines unit assignment; units of a multi-unit cube are spread
// round-robin style by listing the cube once with its full weight.
func NewMapper(sys *config.System, slots []CubeSlot) (*Mapper, error) {
	if len(slots) == 0 {
		return nil, fmt.Errorf("addr: no cubes")
	}
	if sys.RowBytes%sys.InterleaveBytes != 0 {
		return nil, fmt.Errorf("addr: RowBytes %d not a multiple of InterleaveBytes %d",
			sys.RowBytes, sys.InterleaveBytes)
	}
	total, maxNode := 0, packet.NodeID(0)
	for _, s := range slots {
		if s.Units <= 0 {
			return nil, fmt.Errorf("addr: cube %d has non-positive units", s.Node)
		}
		if s.Node < 0 {
			return nil, fmt.Errorf("addr: cube has negative node ID %d", s.Node)
		}
		total += s.Units
		maxNode = max(maxNode, s.Node)
	}
	m := &Mapper{
		interleave:   sys.InterleaveBytes,
		blocksPerRow: sys.RowBytes / sys.InterleaveBytes,
		banksPerCube: sys.BanksPerCube,
		banksPerQuad: sys.BanksPerQuadrant(),
		slots:        slots,
		units:        make([]unit, 0, total),
		totalUnits:   total,
		techOf:       make([]config.MemTech, maxNode+1),
	}
	for i, s := range slots {
		for u := 0; u < s.Units; u++ {
			m.units = append(m.units, unit{slot: i, offset: u})
		}
		m.techOf[s.Node] = s.Tech
	}
	return m, nil
}

// Tech reports the technology of the cube with the given node ID; it
// returns DRAM for unknown nodes (e.g. MetaCube interface chips hold no
// memory and are never mapping targets).
func (m *Mapper) Tech(n packet.NodeID) config.MemTech {
	if uint(n) < uint(len(m.techOf)) {
		return m.techOf[n]
	}
	return config.DRAM
}

// CubeOf returns the destination cube for an address.
func (m *Mapper) CubeOf(a uint64) packet.NodeID {
	bi := a / m.interleave
	return m.slots[m.units[bi%uint64(m.totalUnits)].slot].Node
}

// Decompose maps an address to its full coordinates. localBlock is the
// cube-local block ordinal; quadrant, bank (within the quadrant) and row
// follow the open-page friendly layout: consecutive cube-local blocks
// share a row until blocksPerRow is exhausted, then move to the next
// bank.
func (m *Mapper) Decompose(a uint64) (node packet.NodeID, quadrant, bank int, row int64) {
	bi := a / m.interleave
	u := m.units[bi%uint64(m.totalUnits)]
	s := m.slots[u.slot]
	// Cube-local block index: interleave rounds advance per totalUnits;
	// multi-unit cubes see several units per round.
	localBlock := (bi/uint64(m.totalUnits))*uint64(s.Units) + uint64(u.offset)

	rowGroup := localBlock / m.blocksPerRow
	globalBank := int(rowGroup % uint64(m.banksPerCube))
	row = int64(rowGroup / uint64(m.banksPerCube))
	quadrant = globalBank / m.banksPerQuad
	bank = globalBank % m.banksPerQuad
	return s.Node, quadrant, bank, row
}

// BankMap returns only the bank (within its quadrant) and row
// coordinates: a cube's quadrants map addresses to banks through it
// (vault.BankMapper).
func (m *Mapper) BankMap(a uint64) (bank int, row int64) {
	_, _, bank, row = m.Decompose(a)
	return bank, row
}

// QuadrantOf returns only the quadrant coordinate, used by the router to
// decide whether the wrong-quadrant penalty applies.
func (m *Mapper) QuadrantOf(a uint64) int {
	_, q, _, _ := m.Decompose(a)
	return q
}
