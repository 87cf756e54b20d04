// Package config holds the evaluated-system parameters of the paper
// (Table 2) plus the derived quantities the experiments need: cube
// counts for a given DRAM:NVM capacity ratio, per-port capacities, and
// link/energy constants.
package config

import (
	"fmt"

	"memnet/internal/sim"
)

// MemTech identifies the memory technology of a cube.
type MemTech uint8

const (
	// DRAM is the baseline 16GB HBM-like stacked DRAM cube.
	DRAM MemTech = iota
	// NVM is the PCM-based cube with 4x the capacity of a DRAM cube.
	NVM
)

// String implements fmt.Stringer.
func (t MemTech) String() string {
	if t == NVM {
		return "NVM"
	}
	return "DRAM"
}

// Placement controls where NVM cubes sit in a mixed network, per the
// paper's -F (first: near the host) / -L (last: far from the host)
// suffixes.
type Placement uint8

const (
	// NVMLast places NVM cubes farthest from the processor (suffix -L).
	NVMLast Placement = iota
	// NVMFirst places NVM cubes closest to the processor (suffix -F).
	NVMFirst
)

// String implements fmt.Stringer.
func (p Placement) String() string {
	if p == NVMFirst {
		return "NVM-F"
	}
	return "NVM-L"
}

// ParsePlacement maps a -placement flag value, "last" (-L) or "first"
// (-F), to the Placement.
func ParsePlacement(s string) (Placement, error) {
	switch s {
	case "last":
		return NVMLast, nil
	case "first":
		return NVMFirst, nil
	}
	return 0, fmt.Errorf("unknown placement %q (last | first)", s)
}

// MemTiming captures the array timing parameters of one technology
// (Table 2 "DRAM Timings" / "NVM Timings" rows).
type MemTiming struct {
	TRCD sim.Time // activate -> column command
	TCL  sim.Time // column command -> data
	TRP  sim.Time // precharge
	TRAS sim.Time // activate -> precharge minimum
	TWR  sim.Time // write recovery / NVM cell write occupancy
	// Burst is the data transfer time occupying the bank's data path for
	// one 64B access.
	Burst sim.Time
	// RefInterval and RefDuration model per-bank refresh; zero interval
	// disables refresh (NVM needs none).
	RefInterval sim.Time
	RefDuration sim.Time
}

// MaxBufferPackets is the deepest per-VC link buffer, in packets: a
// link direction counts its credits in 32 bits.
const MaxBufferPackets = 1 << 30

// MaxTRAS is the largest TRAS a timing set may have: a bank keeps the
// part of its tRAS window still ahead of it in 32 bits of picoseconds.
const MaxTRAS = sim.Time(1<<32 - 1)

// validate checks the timing set held in the System field name: no
// parameter is negative and TRAS is at most MaxTRAS.
func (m *MemTiming) validate(name string) error {
	for _, f := range []struct {
		field string
		v     sim.Time
	}{
		{"TRCD", m.TRCD}, {"TCL", m.TCL}, {"TRP", m.TRP}, {"TRAS", m.TRAS}, {"TWR", m.TWR},
		{"Burst", m.Burst}, {"RefInterval", m.RefInterval}, {"RefDuration", m.RefDuration},
	} {
		if f.v < 0 {
			return fmt.Errorf("config: %s.%s must not be negative, got %d ps", name, f.field, int64(f.v))
		}
	}
	if m.TRAS > MaxTRAS {
		return fmt.Errorf("config: %s.TRAS %d ps exceeds the %d ps limit", name, int64(m.TRAS), int64(MaxTRAS))
	}
	return nil
}

// Energy captures the pJ/bit accounting constants of Section 5.
type Energy struct {
	NetworkPJPerBitHop float64 // 5 pJ/bit/hop
	DRAMReadPJPerBit   float64 // 12 pJ/bit
	DRAMWritePJPerBit  float64 // 12 pJ/bit
	NVMReadPJPerBit    float64 // 12 pJ/bit
	NVMWritePJPerBit   float64 // 120 pJ/bit
}

// System is the full simulated-system configuration. The zero value is
// not useful; start from Default and override.
type System struct {
	// Ports is the number of host memory ports, each with a disjoint MN.
	Ports int
	// TotalCapacity is the whole-system memory capacity in bytes.
	TotalCapacity uint64
	// DRAMCubeCapacity and NVMCubeCapacity are per-cube capacities.
	DRAMCubeCapacity uint64
	NVMCubeCapacity  uint64
	// DRAMFraction is the fraction of total capacity provided by DRAM
	// (1.0 = all DRAM, 0.0 = all NVM). The paper labels configurations by
	// this percentage.
	DRAMFraction float64
	// Placement positions the NVM cubes when 0 < DRAMFraction < 1.
	Placement Placement

	// BanksPerCube is the number of independent banks per memory cube
	// (Table 2: 256), distributed evenly across the four quadrants.
	BanksPerCube int
	// Quadrants per cube (HMC-like).
	Quadrants int
	// RowBytes is the row-buffer size per bank; with the per-port 256B
	// interleave this sets the achievable row-hit locality.
	RowBytes uint64

	// LinkLanes and LaneRate give per-direction link bandwidth:
	// 16 lanes x 15 Gbps.
	LinkLanes   int
	LaneRateBps int64
	// SerDesLatency is the fixed serialize/descramble cost per link
	// traversal (2ns in the paper).
	SerDesLatency sim.Time
	// WrongQuadrantPenalty models intra-cube routing to a non-local
	// quadrant (1ns).
	WrongQuadrantPenalty sim.Time
	// LinkBufferPackets is the per-VC input buffer depth at each link
	// endpoint, in packets; this is what credits count. At most
	// MaxBufferPackets.
	LinkBufferPackets int

	// InterleaveBytes is the address-to-port interleaving granularity
	// (256B, chosen empirically in the paper).
	InterleaveBytes uint64

	// MaxOutstanding is the per-port limit of in-flight transactions,
	// modeling the GPU's memory-level parallelism window.
	MaxOutstanding int
	// HostLatency is the fixed processor-side portion of a memory
	// transaction (coalescing, cache hierarchy miss path, memory-port
	// crossing) added outside the network model. It occupies a window
	// slot but is excluded from the network latency breakdown.
	HostLatency sim.Time

	DRAMTiming MemTiming
	NVMTiming  MemTiming
	Energy     Energy
}

// Default returns the paper's Table 2 configuration: 2TB total across 8
// ports, 16GB DRAM cubes, 64GB NVM cubes, HBM-like timings, PCM-like NVM
// timings, and the Section 5 link/energy constants.
func Default() System {
	const (
		gb = 1 << 30
		tb = 1 << 40
	)
	return System{
		Ports:            8,
		TotalCapacity:    2 * tb,
		DRAMCubeCapacity: 16 * gb,
		NVMCubeCapacity:  64 * gb,
		DRAMFraction:     1.0,
		Placement:        NVMLast,

		BanksPerCube: 256,
		Quadrants:    4,
		RowBytes:     2048,

		LinkLanes:            16,
		LaneRateBps:          15e9,
		SerDesLatency:        2 * sim.Nanosecond,
		WrongQuadrantPenalty: 1 * sim.Nanosecond,
		LinkBufferPackets:    8,

		InterleaveBytes: 256,
		MaxOutstanding:  64,
		HostLatency:     80 * sim.Nanosecond,

		DRAMTiming: MemTiming{
			TRCD:        12 * sim.Nanosecond,
			TCL:         6 * sim.Nanosecond,
			TRP:         14 * sim.Nanosecond,
			TRAS:        33 * sim.Nanosecond,
			TWR:         15 * sim.Nanosecond,
			Burst:       3200 * sim.Picosecond, // 64B over the vault TSV bus
			RefInterval: 7800 * sim.Nanosecond,
			RefDuration: 160 * sim.Nanosecond,
		},
		NVMTiming: MemTiming{
			TRCD: 40 * sim.Nanosecond,
			TCL:  10 * sim.Nanosecond,
			TRP:  14 * sim.Nanosecond,
			TRAS: 50 * sim.Nanosecond,
			// PCM cell write occupancy dominates the write path.
			TWR:   320 * sim.Nanosecond,
			Burst: 3200 * sim.Picosecond,
			// No refresh for NVM.
		},
		Energy: Energy{
			NetworkPJPerBitHop: 5,
			DRAMReadPJPerBit:   12,
			DRAMWritePJPerBit:  12,
			NVMReadPJPerBit:    12,
			NVMWritePJPerBit:   120,
		},
	}
}

// Validate checks internal consistency and returns a descriptive error
// for the first violated constraint, including the paper's capacity
// equation (the per-port capacity must divide into whole cubes).
func (s *System) Validate() error {
	if err := s.ValidateBase(); err != nil {
		return err
	}
	if _, _, err := s.CubesPerPort(); err != nil {
		return err
	}
	return nil
}

// ValidateBase checks every constraint except the capacity equation.
// Scenario runs use it: their cube population comes from the declared
// graph, not from solving DRAMFraction against TotalCapacity, so any
// cube count is legal.
func (s *System) ValidateBase() error {
	switch {
	case s.Ports <= 0:
		return fmt.Errorf("config: Ports must be positive, got %d", s.Ports)
	case s.TotalCapacity == 0:
		return fmt.Errorf("config: TotalCapacity must be positive")
	case s.DRAMCubeCapacity == 0 || s.NVMCubeCapacity == 0:
		return fmt.Errorf("config: cube capacities must be positive")
	case s.DRAMFraction < 0 || s.DRAMFraction > 1:
		return fmt.Errorf("config: DRAMFraction %v outside [0,1]", s.DRAMFraction)
	case s.BanksPerCube <= 0:
		return fmt.Errorf("config: BanksPerCube must be positive")
	case s.Quadrants <= 0:
		return fmt.Errorf("config: Quadrants must be positive")
	case s.BanksPerCube%s.Quadrants != 0:
		return fmt.Errorf("config: BanksPerCube %d not divisible by Quadrants %d",
			s.BanksPerCube, s.Quadrants)
	case s.LinkLanes <= 0 || s.LaneRateBps <= 0:
		return fmt.Errorf("config: link bandwidth must be positive")
	case s.LinkBufferPackets <= 0 || s.LinkBufferPackets > MaxBufferPackets:
		return fmt.Errorf("config: LinkBufferPackets %d outside [1, %d]", s.LinkBufferPackets, MaxBufferPackets)
	case s.InterleaveBytes == 0 || s.InterleaveBytes&(s.InterleaveBytes-1) != 0:
		return fmt.Errorf("config: InterleaveBytes must be a power of two, got %d", s.InterleaveBytes)
	case s.MaxOutstanding <= 0:
		return fmt.Errorf("config: MaxOutstanding must be positive")
	case s.TotalCapacity%uint64(s.Ports) != 0:
		return fmt.Errorf("config: TotalCapacity %d not divisible by Ports %d",
			s.TotalCapacity, s.Ports)
	}
	if err := s.DRAMTiming.validate("DRAMTiming"); err != nil {
		return err
	}
	return s.NVMTiming.validate("NVMTiming")
}

// PortCapacity returns the capacity served by one memory port.
func (s *System) PortCapacity() uint64 { return s.TotalCapacity / uint64(s.Ports) }

// LinkBandwidthBps returns the per-direction link bandwidth in bits/s.
func (s *System) LinkBandwidthBps() int64 {
	return int64(s.LinkLanes) * s.LaneRateBps
}

// CubesPerPort solves the paper's capacity equation: given the per-port
// capacity and the DRAM fraction, it returns the number of DRAM and NVM
// cubes each port's MN contains. DRAMFraction f means f of the capacity
// comes from DRAM cubes and (1-f) from NVM cubes; both splits must be
// whole numbers of cubes (e.g. 256GB/port at 50% -> 8 DRAM + 2 NVM).
func (s *System) CubesPerPort() (dram, nvm int, err error) {
	cap := s.PortCapacity()
	dramBytes := uint64(float64(cap)*s.DRAMFraction + 0.5)
	nvmBytes := cap - dramBytes
	if dramBytes%s.DRAMCubeCapacity != 0 {
		return 0, 0, fmt.Errorf(
			"config: DRAM capacity %d per port is not a whole number of %d-byte cubes",
			dramBytes, s.DRAMCubeCapacity)
	}
	if nvmBytes%s.NVMCubeCapacity != 0 {
		return 0, 0, fmt.Errorf(
			"config: NVM capacity %d per port is not a whole number of %d-byte cubes",
			nvmBytes, s.NVMCubeCapacity)
	}
	dram = int(dramBytes / s.DRAMCubeCapacity)
	nvm = int(nvmBytes / s.NVMCubeCapacity)
	if dram+nvm == 0 {
		return 0, 0, fmt.Errorf("config: zero cubes per port")
	}
	return dram, nvm, nil
}

// Timing returns the timing set for the given technology.
func (s *System) Timing(t MemTech) MemTiming {
	if t == NVM {
		return s.NVMTiming
	}
	return s.DRAMTiming
}

// BanksPerQuadrant returns the bank count in each quadrant.
func (s *System) BanksPerQuadrant() int { return s.BanksPerCube / s.Quadrants }

// RatioLabel renders the configuration's DRAM percentage the way the
// paper labels it, e.g. "100%", "50% (NVM-L)", "0%".
func (s *System) RatioLabel() string {
	pct := int(s.DRAMFraction*100 + 0.5)
	if pct == 100 || pct == 0 {
		return fmt.Sprintf("%d%%", pct)
	}
	return fmt.Sprintf("%d%% (%s)", pct, s.Placement)
}
