package workload

import (
	"testing"

	"memnet/internal/sim"
)

const footprint = 1 << 30

func sample(t *testing.T, spec Spec, n int) []Tx {
	t.Helper()
	g := New(spec, footprint, 1)
	txs := make([]Tx, n)
	for i := range txs {
		txs[i] = g.Next()
	}
	return txs
}

func TestSuiteShape(t *testing.T) {
	suite := Suite()
	if len(suite) != 8 {
		t.Fatalf("suite has %d workloads, want 8", len(suite))
	}
	want := []string{"BACKPROP", "BIT", "BUFF", "DCT", "HOTSPOT", "KMEANS", "MATRIXMUL", "NW"}
	for i, s := range suite {
		if s.Name != want[i] {
			t.Fatalf("suite[%d] = %s, want %s", i, s.Name, want[i])
		}
	}
}

func TestByName(t *testing.T) {
	s, err := ByName("KMEANS")
	if err != nil || s.Name != "KMEANS" {
		t.Fatal("lookup failed")
	}
	if _, err := ByName("NOPE"); err == nil {
		t.Fatal("unknown name must fail")
	}
}

// TestPaperTrafficFacts pins the per-workload characteristics the paper
// states (§3.2, §5.3).
func TestPaperTrafficFacts(t *testing.T) {
	const n = 50000
	mix := map[string]float64{}
	for _, spec := range Suite() {
		writes := 0
		for _, tx := range sample(t, spec, n) {
			if tx.Write {
				writes++
			}
		}
		mix[spec.Name] = float64(writes) / n
	}
	// BACKPROP has significantly more writes than reads and is the most
	// write-intensive in the suite.
	if mix["BACKPROP"] <= 0.5 {
		t.Errorf("BACKPROP writes = %.2f, want > 0.5", mix["BACKPROP"])
	}
	for name, w := range mix {
		if name != "BACKPROP" && w >= mix["BACKPROP"] {
			t.Errorf("%s writes %.2f >= BACKPROP %.2f", name, w, mix["BACKPROP"])
		}
	}
	// KMEANS is the most read-intensive.
	for name, w := range mix {
		if name != "KMEANS" && w <= mix["KMEANS"] {
			t.Errorf("%s writes %.2f <= KMEANS %.2f", name, w, mix["KMEANS"])
		}
	}
	// KMEANS, MATRIXMUL, NW have at least two reads per write.
	for _, name := range []string{"KMEANS", "MATRIXMUL", "NW"} {
		if mix[name] > 1.0/3+0.02 {
			t.Errorf("%s writes %.2f, want <= ~1/3", name, mix[name])
		}
	}
	// BIT, BUFF, DCT have nearly identical read and write counts.
	for _, name := range []string{"BIT", "BUFF", "DCT"} {
		if mix[name] < 0.45 || mix[name] > 0.55 {
			t.Errorf("%s writes %.2f, want ~0.5", name, mix[name])
		}
	}
	// NW has the lowest network load: largest MeanGap.
	nw, _ := ByName("NW")
	for _, s := range Suite() {
		if s.Name != "NW" && s.MeanGap >= nw.MeanGap {
			t.Errorf("%s gap %v >= NW %v", s.Name, s.MeanGap, nw.MeanGap)
		}
	}
}

func TestDeterminism(t *testing.T) {
	spec, _ := ByName("HOTSPOT")
	a := New(spec, footprint, 7)
	b := New(spec, footprint, 7)
	for i := 0; i < 10000; i++ {
		ta, tb := a.Next(), b.Next()
		if ta != tb {
			t.Fatalf("diverged at %d: %+v vs %+v", i, ta, tb)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	spec, _ := ByName("BUFF")
	a := New(spec, footprint, 1)
	b := New(spec, footprint, 2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Next().Addr == b.Next().Addr {
			same++
		}
	}
	if same > 900 {
		t.Fatalf("different seeds produced %d/1000 identical addresses", same)
	}
}

func TestAddressesInFootprint(t *testing.T) {
	for _, spec := range Suite() {
		for _, tx := range sample(t, spec, 20000) {
			if tx.Addr >= footprint {
				t.Fatalf("%s: addr %#x outside footprint", spec.Name, tx.Addr)
			}
			if tx.Addr%64 != 0 {
				t.Fatalf("%s: addr %#x not block-aligned", spec.Name, tx.Addr)
			}
		}
	}
}

func TestSequentialLocality(t *testing.T) {
	spec, _ := ByName("BUFF") // SeqProb 0.85
	txs := sample(t, spec, 20000)
	seq := 0
	for i := 1; i < len(txs); i++ {
		if txs[i].Addr == txs[i-1].Addr+64 || txs[i].Addr == txs[i-1].Addr {
			seq++
		}
	}
	frac := float64(seq) / float64(len(txs)-1)
	if frac < 0.75 {
		t.Fatalf("BUFF sequential fraction %.2f, want >= 0.75", frac)
	}
}

func TestRMWPairs(t *testing.T) {
	spec, _ := ByName("BIT") // RMWFraction 0.3
	txs := sample(t, spec, 20000)
	pairs := 0
	for i := 1; i < len(txs); i++ {
		if txs[i].RMW {
			pairs++
			if txs[i-1].Write || txs[i-1].Addr != txs[i].Addr {
				t.Fatal("RMW write must follow its read to the same address")
			}
			if !txs[i].Write || txs[i].Gap != 0 {
				t.Fatal("RMW second half must be an immediate write")
			}
		}
	}
	if pairs == 0 {
		t.Fatal("no RMW pairs generated")
	}
}

func TestWriteBursts(t *testing.T) {
	spec, _ := ByName("BACKPROP")
	txs := sample(t, spec, 50000)
	// Find the longest run of consecutive writes; bursts should create
	// runs far longer than an i.i.d. 53%-write stream would (~12 max).
	longest, cur := 0, 0
	for _, tx := range txs {
		if tx.Write {
			cur++
			if cur > longest {
				longest = cur
			}
		} else {
			cur = 0
		}
	}
	if longest < 20 {
		t.Fatalf("longest write run %d; bursts missing", longest)
	}
}

func TestHotspotConcentration(t *testing.T) {
	spec, _ := ByName("HOTSPOT")
	txs := sample(t, spec, 50000)
	hotRegion := uint64(float64(footprint) * spec.HotRegion)
	hot := 0
	for _, tx := range txs {
		if tx.Addr < hotRegion {
			hot++
		}
	}
	// ~HotFraction of the random jumps plus run-length effects: expect
	// clearly more than the region's 5% share of a uniform stream.
	if frac := float64(hot) / float64(len(txs)); frac < 0.15 {
		t.Fatalf("hot region got %.2f of accesses", frac)
	}
}

func TestGapDistribution(t *testing.T) {
	spec, _ := ByName("DCT")
	txs := sample(t, spec, 50000)
	var sum sim.Time
	for _, tx := range txs {
		sum += tx.Gap
	}
	mean := float64(sum) / float64(len(txs))
	want := float64(spec.MeanGap)
	if mean < want*0.95 || mean > want*1.05 {
		t.Fatalf("mean gap %.0fps, want ~%.0fps", mean, want)
	}
}

func TestTinyFootprintPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(Spec{Name: "x", MeanGap: sim.Nanosecond}, 32, 1)
}

// TestNextAllocFree: drawing a transaction allocates nothing for any
// proxy, including the read-modify-write pairs whose write is staged
// between calls.
func TestNextAllocFree(t *testing.T) {
	for _, spec := range Suite() {
		g := New(spec, footprint, 1)
		// AllocsPerRun truncates its mean to an integer, so each run
		// draws a batch: one allocation in 2,000 draws still shows.
		if n := testing.AllocsPerRun(5, func() {
			for i := 0; i < 2000; i++ {
				g.Next()
			}
		}); n != 0 {
			t.Errorf("%s: 2,000 draws make %v allocations, want 0", spec.Name, n)
		}
	}
}
