// Package workload generates the memory-request streams that drive the
// experiments. The paper evaluated GPGPU kernels from the AMD SDK and
// Rodinia suites on a simulated GPU; here each workload is a synthetic
// proxy that preserves the traffic character the paper attributes to it —
// read/write mix, injection intensity, spatial locality, burstiness, and
// read-modify-write behavior — since those are the properties that
// determine memory-network performance (see DESIGN.md, substitutions).
//
// Facts pinned from the paper text and reproduced by the proxies:
//
//   - BACKPROP has "significantly more writes than reads" and is "by far
//     the most write intensive" (§3.2, §5.3), with large write bursts.
//   - KMEANS, MATRIXMUL and NW have "at least two reads for every one
//     write"; KMEANS is "the most read intensive" (§3.2, §5.3).
//   - NW has "the lowest network load of all the workloads" (§3.2).
//   - The remaining workloads (BIT, BUFF, DCT, HOTSPOT) have "nearly
//     identical numbers of read and write requests" (§3.2).
package workload

import (
	"fmt"

	"memnet/internal/sim"
)

// Tx is one generated memory transaction.
type Tx struct {
	Addr  uint64
	Write bool
	// Gap is the think time after the previous injection attempt.
	Gap sim.Time
	// RMW marks the write half of a read-modify-write pair; the host
	// issues the read first and orders the write behind it.
	RMW bool
}

// Generator produces an unbounded transaction stream.
type Generator interface {
	Next() Tx
}

// Spec parameterizes a synthetic workload proxy.
type Spec struct {
	Name string
	// ReadFraction is the steady-state fraction of read transactions.
	ReadFraction float64
	// MeanGap is the average think time between injection attempts at
	// one memory port under the baseline 8-port system; smaller means
	// higher network load.
	MeanGap sim.Time
	// SeqProb is the probability the next address continues a
	// sequential run (spatial locality); otherwise the stream jumps to a
	// random block.
	SeqProb float64
	// SeqStride is the sequential step in bytes (one 64B access).
	SeqStride uint64
	// HotFraction, if positive, sends that fraction of the random jumps
	// into a hot region covering HotRegion of the footprint.
	HotFraction float64
	HotRegion   float64
	// RMWFraction is the fraction of writes that are read-modify-writes
	// (a dependent read precedes them to the same address).
	RMWFraction float64
	// BurstProb is the per-transaction probability of entering a write
	// burst of mean length BurstLen during which transactions are
	// writes with probability BurstWriteFrac.
	BurstProb      float64
	BurstLen       int
	BurstWriteFrac float64
	// Window, when positive, overrides the system's outstanding-request
	// window for this workload — modeling kernels whose dependency
	// structure limits the memory-level parallelism the GPU can expose
	// (e.g. NW's wavefront pattern).
	Window int
}

// MaxMeanGap bounds MeanGap: 400 times the suite's longest (2.5 ns).
// A port's gap grows with the port count, and a run of gaps past it
// would outlast core's 10 s horizon.
const MaxMeanGap = sim.Microsecond

// Validate checks s and returns an error naming the first field out of
// range: each fraction and probability in [0, 1], MeanGap in [0,
// MaxMeanGap], and BurstLen and Window not negative.
func (s *Spec) Validate() error {
	for _, f := range [...]struct {
		name string
		v    float64
	}{
		{"ReadFraction", s.ReadFraction}, {"SeqProb", s.SeqProb}, {"HotFraction", s.HotFraction},
		{"HotRegion", s.HotRegion}, {"RMWFraction", s.RMWFraction}, {"BurstProb", s.BurstProb},
		{"BurstWriteFrac", s.BurstWriteFrac},
	} {
		if !(f.v >= 0 && f.v <= 1) {
			return fmt.Errorf("workload: %s is %v, want 0 to 1", f.name, f.v)
		}
	}
	switch {
	case s.MeanGap < 0 || s.MeanGap > MaxMeanGap:
		return fmt.Errorf("workload: MeanGap is %d ps, want 0 to %d", int64(s.MeanGap), int64(MaxMeanGap))
	case s.BurstLen < 0:
		return fmt.Errorf("workload: BurstLen is %d, want at least 0", s.BurstLen)
	case s.Window < 0:
		return fmt.Errorf("workload: Window is %d, want at least 0", s.Window)
	}
	return nil
}

// Suite returns the eight workload proxies in the paper's presentation
// order.
func Suite() []Spec {
	return []Spec{
		{
			// Backpropagation weight-update phases write entire layer
			// matrices: write-dominated with long write bursts.
			Name: "BACKPROP", ReadFraction: 0.35, MeanGap: 2200 * sim.Picosecond,
			SeqProb: 0.75, SeqStride: 64,
			BurstProb: 0.02, BurstLen: 48, BurstWriteFrac: 0.95,
		},
		{
			// Bitonic sort: compare-exchange passes, balanced reads and
			// writes with strided locality and RMW-like pairs.
			Name: "BIT", ReadFraction: 0.41, MeanGap: 2400 * sim.Picosecond,
			SeqProb: 0.55, SeqStride: 64, RMWFraction: 0.30,
		},
		{
			// Box/buffer filter: streaming copy, balanced mix, high
			// spatial locality.
			Name: "BUFF", ReadFraction: 0.50, MeanGap: 2 * sim.Nanosecond,
			SeqProb: 0.85, SeqStride: 64,
		},
		{
			// Discrete cosine transform: blocked access, balanced mix.
			Name: "DCT", ReadFraction: 0.50, MeanGap: 2400 * sim.Picosecond,
			SeqProb: 0.70, SeqStride: 64,
		},
		{
			// Hotspot thermal simulation: stencil with a hot working
			// region, near-balanced mix.
			Name: "HOTSPOT", ReadFraction: 0.55, MeanGap: 2600 * sim.Picosecond,
			SeqProb: 0.60, SeqStride: 64,
			HotFraction: 0.5, HotRegion: 0.05,
		},
		{
			// K-means clustering: the most read-intensive — repeated
			// scans of the point set with rare centroid writes.
			Name: "KMEANS", ReadFraction: 0.80, MeanGap: 2 * sim.Nanosecond,
			SeqProb: 0.75, SeqStride: 64,
		},
		{
			// Dense matrix multiply: >=2:1 reads, streaming rows.
			Name: "MATRIXMUL", ReadFraction: 0.67, MeanGap: 2200 * sim.Picosecond,
			SeqProb: 0.80, SeqStride: 64,
		},
		{
			// Needleman-Wunsch: >=2:1 reads and the lowest network load
			// in the suite (wavefront dependencies throttle issue).
			Name: "NW", ReadFraction: 0.67, MeanGap: 8 * sim.Nanosecond,
			SeqProb: 0.60, SeqStride: 64, Window: 32,
		},
	}
}

// ByName returns the suite spec with the given name.
func ByName(name string) (Spec, error) {
	for _, s := range Suite() {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("workload: unknown workload %q", name)
}

// generator is the stateful proxy implementation.
type generator struct {
	spec      Spec
	rng       *sim.Rand
	footprint uint64
	cursor    uint64
	burstLeft int
	// pendingW is the staged RMW write to follow the read just emitted,
	// or the zero Tx (RMW false) when none is staged. It is held by value
	// so that staging allocates nothing.
	pendingW Tx
}

// New returns a deterministic generator over the given footprint (bytes)
// with the given seed. Footprint must be at least one 64B block.
func New(spec Spec, footprint uint64, seed uint64) Generator {
	if footprint < 64 {
		panic("workload: footprint below one block")
	}
	if spec.SeqStride == 0 {
		spec.SeqStride = 64
	}
	g := &generator{spec: spec, rng: sim.NewRand(seed), footprint: footprint}
	g.cursor = g.randomBlock()
	return g
}

func (g *generator) randomBlock() uint64 {
	blocks := g.footprint / 64
	b := uint64(g.rng.Int63n(int64(blocks)))
	return b * 64
}

func (g *generator) hotBlock() uint64 {
	region := uint64(float64(g.footprint) * g.spec.HotRegion)
	if region < 64 {
		region = 64
	}
	blocks := region / 64
	b := uint64(g.rng.Int63n(int64(blocks)))
	return b * 64
}

// Next implements Generator.
func (g *generator) Next() Tx {
	if g.pendingW.RMW {
		tx := g.pendingW
		g.pendingW = Tx{}
		return tx
	}

	// Address: continue the sequential run or jump.
	if g.rng.Bool(g.spec.SeqProb) {
		g.cursor += g.spec.SeqStride
		if g.cursor >= g.footprint {
			g.cursor = 0
		}
	} else if g.spec.HotFraction > 0 && g.rng.Bool(g.spec.HotFraction) {
		g.cursor = g.hotBlock()
	} else {
		g.cursor = g.randomBlock()
	}

	// Burst state.
	writeP := 1 - g.spec.ReadFraction
	if g.burstLeft > 0 {
		g.burstLeft--
		writeP = g.spec.BurstWriteFrac
	} else if g.spec.BurstProb > 0 && g.rng.Bool(g.spec.BurstProb) {
		g.burstLeft = g.spec.BurstLen
		writeP = g.spec.BurstWriteFrac
	}

	gap := sim.Time(g.rng.Exp(float64(g.spec.MeanGap)))
	write := g.rng.Bool(writeP)

	if write && g.spec.RMWFraction > 0 && g.rng.Bool(g.spec.RMWFraction) {
		// Emit the read now; stage the dependent write.
		g.pendingW = Tx{Addr: g.cursor, Write: true, Gap: 0, RMW: true}
		return Tx{Addr: g.cursor, Write: false, Gap: gap}
	}
	return Tx{Addr: g.cursor, Write: write, Gap: gap}
}
