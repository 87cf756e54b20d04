package config

import (
	"strings"
	"testing"
	"testing/quick"

	"memnet/internal/sim"
)

func TestDefaultValidates(t *testing.T) {
	sys := Default()
	if err := sys.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

func TestTable2Values(t *testing.T) {
	// Pin the paper's Table 2 numbers so config drift is caught.
	sys := Default()
	if sys.Ports != 8 {
		t.Error("ports != 8")
	}
	if sys.TotalCapacity != 2<<40 {
		t.Error("total != 2TB")
	}
	if sys.DRAMCubeCapacity != 16<<30 || sys.NVMCubeCapacity != 64<<30 {
		t.Error("stack capacities wrong")
	}
	if sys.BanksPerCube != 256 {
		t.Error("banks != 256")
	}
	if sys.DRAMTiming.TRCD != 12*sim.Nanosecond || sys.DRAMTiming.TCL != 6*sim.Nanosecond ||
		sys.DRAMTiming.TRP != 14*sim.Nanosecond || sys.DRAMTiming.TRAS != 33*sim.Nanosecond {
		t.Error("DRAM timings differ from Table 2")
	}
	if sys.NVMTiming.TRCD != 40*sim.Nanosecond || sys.NVMTiming.TCL != 10*sim.Nanosecond ||
		sys.NVMTiming.TWR != 320*sim.Nanosecond {
		t.Error("NVM timings differ from Table 2")
	}
	if sys.Energy.NetworkPJPerBitHop != 5 || sys.Energy.DRAMReadPJPerBit != 12 ||
		sys.Energy.NVMWritePJPerBit != 120 {
		t.Error("energy constants differ from Section 5")
	}
	if sys.LinkLanes != 16 || sys.LaneRateBps != 15e9 {
		t.Error("link parameters differ from Section 5")
	}
	if sys.SerDesLatency != 2*sim.Nanosecond || sys.WrongQuadrantPenalty != sim.Nanosecond {
		t.Error("per-hop latencies differ from Section 5")
	}
	if sys.InterleaveBytes != 256 {
		t.Error("interleave != 256B")
	}
}

func TestCubesPerPort(t *testing.T) {
	cases := []struct {
		frac      float64
		dram, nvm int
	}{
		{1.0, 16, 0},
		{0.5, 8, 2},
		{0.0, 0, 4},
		{0.25, 4, 3},
		{0.75, 12, 1},
	}
	for _, c := range cases {
		sys := Default()
		sys.DRAMFraction = c.frac
		d, n, err := sys.CubesPerPort()
		if err != nil {
			t.Fatalf("frac %v: %v", c.frac, err)
		}
		if d != c.dram || n != c.nvm {
			t.Errorf("frac %v: got %d DRAM + %d NVM, want %d + %d",
				c.frac, d, n, c.dram, c.nvm)
		}
		// Capacity conservation.
		got := uint64(d)*sys.DRAMCubeCapacity + uint64(n)*sys.NVMCubeCapacity
		if got != sys.PortCapacity() {
			t.Errorf("frac %v: capacity %d != port %d", c.frac, got, sys.PortCapacity())
		}
	}
}

func TestCubesPerPortRejectsFractional(t *testing.T) {
	sys := Default()
	sys.DRAMFraction = 0.37 // not a whole number of cubes
	if _, _, err := sys.CubesPerPort(); err == nil {
		t.Fatal("expected error for non-integral cube split")
	}
}

func TestValidateErrors(t *testing.T) {
	break1 := func(f func(*System)) error {
		sys := Default()
		f(&sys)
		return sys.Validate()
	}
	cases := []struct {
		name string
		f    func(*System)
	}{
		{"ports", func(s *System) { s.Ports = 0 }},
		{"capacity", func(s *System) { s.TotalCapacity = 0 }},
		{"cube cap", func(s *System) { s.DRAMCubeCapacity = 0 }},
		{"fraction", func(s *System) { s.DRAMFraction = 1.5 }},
		{"banks", func(s *System) { s.BanksPerCube = 0 }},
		{"quadrants", func(s *System) { s.Quadrants = 0 }},
		{"banks%quad", func(s *System) { s.BanksPerCube = 255 }},
		{"link bw", func(s *System) { s.LaneRateBps = 0 }},
		{"buffers", func(s *System) { s.LinkBufferPackets = 0 }},
		{"deep buffers", func(s *System) { s.LinkBufferPackets = MaxBufferPackets + 1 }},
		{"interleave pow2", func(s *System) { s.InterleaveBytes = 257 }},
		{"window", func(s *System) { s.MaxOutstanding = 0 }},
		{"cap%ports", func(s *System) { s.Ports = 7 }},
		{"many ports", func(s *System) { s.Ports = MaxPorts * 2 }},
		{"nvm cube ratio", func(s *System) { s.NVMCubeCapacity = s.DRAMCubeCapacity * (MaxCubeRatio + 1) }},
		{"many banks", func(s *System) { s.BanksPerCube = MaxBanksPerCube * 2 }},
		{"many cubes", func(s *System) { s.DRAMCubeCapacity = s.PortCapacity() / (2 * MaxCubesPerPort) }},
		{"slow link", func(s *System) { s.LaneRateBps = 1 }},
		{"fast link", func(s *System) { s.LaneRateBps = MaxBandwidthBps }},
		{"lanes overflow", func(s *System) { s.LinkLanes, s.LaneRateBps = 1<<40, 1<<40 }},
		{"row bytes", func(s *System) { s.RowBytes = 0 }},
		{"row%interleave", func(s *System) { s.RowBytes = 300 }},
		{"wide window", func(s *System) { s.MaxOutstanding = MaxWindow + 1 }},
		{"serdes", func(s *System) { s.SerDesLatency = MaxLatency + 1 }},
		{"negative serdes", func(s *System) { s.SerDesLatency = -1 }},
		{"host latency", func(s *System) { s.HostLatency = MaxLatency + 1 }},
		{"quadrant penalty", func(s *System) { s.WrongQuadrantPenalty = -1 }},
	}
	for _, c := range cases {
		if err := break1(c.f); err == nil {
			t.Errorf("%s: expected validation error", c.name)
		}
	}
}

// TestValidateTiming: both timing sets are checked, every parameter
// must be non-negative and TRAS must fit a bank's 32-bit window, and the
// error names the offending field.
func TestValidateTiming(t *testing.T) {
	for _, tc := range []struct {
		name string
		f    func(*System)
		want string // error prefix, "" for valid
	}{
		{"default", func(s *System) {}, ""},
		{"TRAS 0", func(s *System) { s.DRAMTiming.TRAS = 0 }, ""},
		{"TRAS at limit", func(s *System) { s.NVMTiming.TRAS = MaxTRAS }, ""},
		{"DRAM TRAS negative", func(s *System) { s.DRAMTiming.TRAS = -1 }, "config: DRAMTiming.TRAS "},
		{"NVM TRAS negative", func(s *System) { s.NVMTiming.TRAS = -sim.Nanosecond }, "config: NVMTiming.TRAS "},
		{"DRAM TRAS 2^32", func(s *System) { s.DRAMTiming.TRAS = MaxTRAS + 1 }, "config: DRAMTiming.TRAS "},
		{"NVM TRAS 2^32", func(s *System) { s.NVMTiming.TRAS = 1 << 32 }, "config: NVMTiming.TRAS "},
		{"NVM TWR negative", func(s *System) { s.NVMTiming.TWR = -1 }, "config: NVMTiming.TWR "},
		{"DRAM RefDuration negative", func(s *System) { s.DRAMTiming.RefDuration = -1 }, "config: DRAMTiming.RefDuration "},
		{"TRCD at limit", func(s *System) { s.DRAMTiming.TRCD = MaxLatency }, ""},
		{"DRAM TRCD over", func(s *System) { s.DRAMTiming.TRCD = MaxLatency + 1 }, "config: DRAMTiming.TRCD "},
		{"NVM Burst over", func(s *System) { s.NVMTiming.Burst = MaxLatency + 1 }, "config: NVMTiming.Burst "},
		{"RefInterval at limit", func(s *System) { s.DRAMTiming.RefInterval = MinRefInterval }, ""},
		{"RefInterval short", func(s *System) { s.DRAMTiming.RefInterval = 1 }, "config: DRAMTiming.RefInterval "},
		{"RefDuration whole interval", func(s *System) { s.DRAMTiming.RefDuration = s.DRAMTiming.RefInterval }, "config: DRAMTiming.RefInterval "},
	} {
		sys := Default()
		tc.f(&sys)
		for _, v := range []struct {
			fn  string
			err error
		}{{"Validate", sys.Validate()}, {"ValidateBase", sys.ValidateBase()}} {
			switch {
			case tc.want == "" && v.err != nil:
				t.Errorf("%s: %s: %v", tc.name, v.fn, v.err)
			case tc.want != "" && (v.err == nil || !strings.HasPrefix(v.err.Error(), tc.want)):
				t.Errorf("%s: %s = %v, want an error starting %q", tc.name, v.fn, v.err, tc.want)
			}
		}
	}
}

func TestDerivedQuantities(t *testing.T) {
	sys := Default()
	if sys.PortCapacity() != 256<<30 {
		t.Fatalf("port capacity = %d", sys.PortCapacity())
	}
	if sys.LinkBandwidthBps() != 240e9 {
		t.Fatalf("link bw = %d", sys.LinkBandwidthBps())
	}
	if sys.BanksPerQuadrant() != 64 {
		t.Fatalf("banks/quadrant = %d", sys.BanksPerQuadrant())
	}
	if sys.Timing(DRAM).TRCD != sys.DRAMTiming.TRCD || sys.Timing(NVM).TWR != sys.NVMTiming.TWR {
		t.Fatal("Timing dispatch wrong")
	}
}

func TestStringers(t *testing.T) {
	if DRAM.String() != "DRAM" || NVM.String() != "NVM" {
		t.Fatal("MemTech strings")
	}
	if !strings.Contains(NVMLast.String(), "L") || !strings.Contains(NVMFirst.String(), "F") {
		t.Fatal("Placement strings")
	}
}

// Property: any quarter-step DRAM fraction (the granularity at which
// both cube types split integrally: one NVM cube is a quarter of a
// port's capacity) yields a valid split that exactly conserves capacity.
func TestCubeSplitConservation(t *testing.T) {
	f := func(step uint8) bool {
		frac := float64(step%5) / 4 // 0, 1/4, ..., 1
		sys := Default()
		sys.DRAMFraction = frac
		d, n, err := sys.CubesPerPort()
		if err != nil {
			return false
		}
		return uint64(d)*sys.DRAMCubeCapacity+uint64(n)*sys.NVMCubeCapacity == sys.PortCapacity()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
