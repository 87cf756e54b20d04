package fault

import (
	"math"
	"reflect"
	"testing"

	"memnet/internal/packet"
	"memnet/internal/sim"
)

func TestEnabled(t *testing.T) {
	var nilCfg *Config
	if nilCfg.Enabled() {
		t.Error("nil Config reported enabled")
	}
	if (&Config{Seed: 42}).Enabled() {
		t.Error("seed alone should not enable the fault layer")
	}
	cases := []Config{
		{LinkBER: 1e-6},
		{KillLinks: []LinkKill{{Edge: 0, At: 1}}},
		{KillCubes: []CubeKill{{Node: 3, At: 1}}},
		{LaneFails: []LaneFail{{Edge: 2, At: 1}}},
		{Watchdog: true},
	}
	for i, c := range cases {
		if !c.Enabled() {
			t.Errorf("case %d: %+v not enabled", i, c)
		}
	}
}

func TestWithDefaults(t *testing.T) {
	c := Config{}.WithDefaults()
	if c.Seed != 1 {
		t.Errorf("default seed = %d, want 1", c.Seed)
	}
	if c.RetryBackoff != 8*sim.Nanosecond {
		t.Errorf("default backoff = %v", c.RetryBackoff)
	}
	if c.WatchdogInterval != 50*sim.Microsecond || c.WatchdogStale != 4 {
		t.Errorf("default watchdog = %v x%d", c.WatchdogInterval, c.WatchdogStale)
	}
	// Explicit values survive.
	c = Config{Seed: 9, RetryBackoff: sim.Nanosecond, WatchdogInterval: sim.Microsecond, WatchdogStale: 2}.WithDefaults()
	if c.Seed != 9 || c.RetryBackoff != sim.Nanosecond || c.WatchdogInterval != sim.Microsecond || c.WatchdogStale != 2 {
		t.Errorf("defaults clobbered explicit values: %+v", c)
	}
}

func TestValidate(t *testing.T) {
	bad := []Config{
		{LinkBER: -0.1},
		{LinkBER: 1.5},
		{MaxRetries: -1},
		{RetryBackoff: -1},
		{WatchdogStale: -1},
		{KillLinks: []LinkKill{{Edge: -1, At: 0}}},
		{KillLinks: []LinkKill{{Edge: 0, At: -5}}},
		{KillCubes: []CubeKill{{Node: 0, At: 1}}}, // host is not killable
		{LaneFails: []LaneFail{{Edge: -2, At: 0}}},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: %+v validated", i, c)
		}
	}
	ok := Config{
		LinkBER:   1e-4,
		KillLinks: []LinkKill{{Edge: 3, At: sim.Microsecond}},
		KillCubes: []CubeKill{{Node: 5, At: 2 * sim.Microsecond, Full: true}},
		LaneFails: []LaneFail{{Edge: 1, At: sim.Nanosecond}},
	}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestScheduleOrdering(t *testing.T) {
	c := Config{
		KillLinks: []LinkKill{{Edge: 1, At: 300}, {Edge: 2, At: 100}},
		KillCubes: []CubeKill{{Node: 4, At: 100}},
		LaneFails: []LaneFail{{Edge: 0, At: 50}},
	}
	evs := c.Schedule()
	want := []Event{
		{At: 50, Kind: EvLaneFail, Edge: 0},
		{At: 100, Kind: EvKillLink, Edge: 2},
		{At: 100, Kind: EvKillCube, Node: 4},
		{At: 300, Kind: EvKillLink, Edge: 1},
	}
	if !reflect.DeepEqual(evs, want) {
		t.Errorf("schedule:\n got %+v\nwant %+v", evs, want)
	}
}

func TestLinkFaultNilWhenDisabled(t *testing.T) {
	c := Config{}.WithDefaults()
	if f := c.LinkFault(0, 0); f != nil {
		t.Errorf("BER=0 produced a LinkFault: %+v", f)
	}
}

// TestCorruptDeterministic: the same (seed, edge, dir) stream replays the
// same draw sequence, and distinct directions draw distinct sequences.
func TestCorruptDeterministic(t *testing.T) {
	c := Config{Seed: 7, LinkBER: 0.01}.WithDefaults()
	a1, a2, b := c.LinkFault(3, 0), c.LinkFault(3, 0), c.LinkFault(3, 1)
	const n = 4096
	var sameAA, sameAB int
	for i := 0; i < n; i++ {
		x, y, z := a1.Corrupt(640), a2.Corrupt(640), b.Corrupt(640)
		if x == y {
			sameAA++
		}
		if x == z {
			sameAB++
		}
	}
	if sameAA != n {
		t.Errorf("identical streams diverged: %d/%d draws equal", sameAA, n)
	}
	if sameAB == n {
		t.Error("distinct directions produced identical draw sequences")
	}
}

// TestCorruptRate: with BER b over k bits, packets corrupt at roughly
// p = 1-(1-b)^k. Sanity-check the empirical rate within loose bounds.
func TestCorruptRate(t *testing.T) {
	f := NewLinkFault(99, 1e-4, 0, sim.Nanosecond)
	const n, bits = 200000, 640
	hits := 0
	for i := 0; i < n; i++ {
		if f.Corrupt(bits) {
			hits++
		}
	}
	// p ≈ 0.0620; accept [0.05, 0.075].
	rate := float64(hits) / n
	if rate < 0.05 || rate > 0.075 {
		t.Errorf("corruption rate %v, want ≈0.062", rate)
	}
}

func TestCorruptExtremes(t *testing.T) {
	never := NewLinkFault(1, 0, 0, 0)
	always := NewLinkFault(1, 1, 0, 0)
	for i := 0; i < 100; i++ {
		if never.Corrupt(640) {
			t.Fatal("BER=0 corrupted a packet")
		}
		if !always.Corrupt(640) {
			t.Fatal("BER=1 passed a packet")
		}
	}
}

// TestCorruptMatchesFormula: every call makes exactly one draw from the
// direction's stream and compares it against 1-(1-BER)^bits, whether
// the size is one of the two precomputed ones or not.
func TestCorruptMatchesFormula(t *testing.T) {
	const seed, ber = 7, 3e-4
	f := NewLinkFault(seed, ber, 0, 0)
	ref := sim.NewRand(seed)
	sizes := []int{packet.DataBits, packet.ControlBits, 200}
	for i := 0; i < 30000; i++ {
		bits := sizes[i%len(sizes)]
		want := ref.Float64() < 1-math.Pow(1-ber, float64(bits))
		if got := f.Corrupt(bits); got != want {
			t.Fatalf("call %d (%d bits): Corrupt = %v, formula %v", i, bits, got, want)
		}
	}
}
