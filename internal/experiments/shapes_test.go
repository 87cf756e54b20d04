package experiments

import (
	"testing"
)

// The shape tests assert the qualitative results the paper reports —
// who wins, in which direction, where the crossovers are — at reduced
// trace length. They are the repository's regression net: calibration
// changes that break a paper-level conclusion fail here.

// shapeMemo is the memo every shape test's Runner shares, so a run two
// tests need (Fig. 11 and 12's baselines, Fig. 15's runs behind Fig.
// 14, ...) is simulated once. Its key is the complete run, so the
// tests' different Workloads subsets cannot collide.
var shapeMemo = newMemo()

func shapeRunner(t *testing.T, workloads ...string) *Runner {
	t.Helper()
	if testing.Short() {
		t.Skip("shape sweep")
	}
	r := NewRunner(Options{Transactions: 3000, Seed: 1, Workloads: workloads})
	r.memo = shapeMemo
	return r
}

// Fig. 4: tree > ring > chain for every workload in the all-DRAM MN.
func TestShapeFig4TopologyOrdering(t *testing.T) {
	r := shapeRunner(t)
	tab, err := r.Fig4()
	if err != nil {
		t.Fatal(err)
	}
	ring, _ := tab.RowByLabel("100%-R")
	tree, _ := tab.RowByLabel("100%-T")
	for i, col := range tab.Columns {
		if col == "average" {
			continue
		}
		if ring.Values[i] < -0.5 {
			t.Errorf("%s: ring slower than chain (%.2f%%)", col, ring.Values[i])
		}
		if tree.Values[i] < ring.Values[i]-1.0 {
			t.Errorf("%s: tree (%.2f%%) below ring (%.2f%%)",
				col, tree.Values[i], ring.Values[i])
		}
	}
	rAvg, _ := tab.Cell("100%-R", "average")
	tAvg, _ := tab.Cell("100%-T", "average")
	if !(tAvg > rAvg && rAvg > 5) {
		t.Fatalf("averages: ring %.1f, tree %.1f — want tree > ring > 5%%", rAvg, tAvg)
	}
	// NW has the lowest network load and the smallest tree speedup.
	nw, _ := tab.Cell("100%-T", "NW")
	for _, col := range tab.Columns[:len(tab.Columns)-1] {
		if col == "NW" {
			continue
		}
		v, _ := tab.Cell("100%-T", col)
		if v < nw {
			t.Errorf("%s tree speedup %.1f%% below NW's %.1f%%", col, v, nw)
		}
	}
}

// Fig. 5: network latency dominates the chain; the request path exceeds
// the response path (response priority backs requests up); in-memory
// latency is roughly constant across topologies.
func TestShapeFig5Breakdown(t *testing.T) {
	r := shapeRunner(t, "BUFF", "KMEANS", "BACKPROP")
	tab, err := r.Fig5()
	if err != nil {
		t.Fatal(err)
	}
	get := func(row, col string) float64 {
		v, ok := tab.Cell(row, col)
		if !ok {
			t.Fatalf("missing %s/%s", row, col)
		}
		return v
	}
	for _, wl := range []string{"BUFF", "KMEANS"} {
		to := get("Chain/to-memory", wl)
		in := get("Chain/in-memory", wl)
		from := get("Chain/from-memory", wl)
		if to+from <= in {
			t.Errorf("%s: chain network latency (%.2f) not dominant over array (%.2f)",
				wl, to+from, in)
		}
		if to <= from {
			t.Errorf("%s: request path (%.2f) not longer than response path (%.2f)",
				wl, to, from)
		}
		// Chain rows are normalized to the chain total: they sum to 1.
		if s := to + in + from; s < 0.99 || s > 1.01 {
			t.Errorf("%s: chain breakdown sums to %.3f", wl, s)
		}
		// Tree's total is well below the chain's.
		treeTotal := get("Tree/to-memory", wl) + get("Tree/in-memory", wl) +
			get("Tree/from-memory", wl)
		if treeTotal >= 0.95 {
			t.Errorf("%s: tree total %.2f not below chain", wl, treeTotal)
		}
		// In-memory latency stays roughly constant across topologies.
		if tin := get("Tree/in-memory", wl); tin < in*0.7 || tin > in*1.4 {
			t.Errorf("%s: in-memory latency not constant: chain %.2f tree %.2f",
				wl, in, tin)
		}
	}
}

// Fig. 7: NVM mixing on the tree — ordering 100% and mixes above 0%;
// all positive against the chain baseline for loaded workloads; NW
// insensitive.
func TestShapeFig7NVMLadder(t *testing.T) {
	r := shapeRunner(t, "KMEANS", "BUFF", "NW")
	tab, err := r.Fig7()
	if err != nil {
		t.Fatal(err)
	}
	for _, wl := range []string{"KMEANS", "BUFF"} {
		full, _ := tab.Cell("100%-T", wl)
		mixL, _ := tab.Cell("50%-T (NVM-L)", wl)
		none, _ := tab.Cell("0%-T", wl)
		if !(full > mixL && mixL > none) {
			t.Errorf("%s: ladder broken: 100%%=%.1f 50L=%.1f 0=%.1f", wl, full, mixL, none)
		}
		if mixL <= 0 {
			t.Errorf("%s: 50%% mix not beneficial vs chain (%.1f%%)", wl, mixL)
		}
	}
}

// Fig. 10: naive distance arbitration — positive on average for the
// homogeneous networks, negative for NVM-F (distance mispredicts age
// when slow cubes are near), as §5.1 reports.
func TestShapeFig10DistanceSigns(t *testing.T) {
	r := shapeRunner(t)
	tab, err := r.Fig10()
	if err != nil {
		t.Fatal(err)
	}
	var homo, nvmF float64
	var nHomo, nF int
	for _, row := range tab.Rows {
		avg := row.Values[len(row.Values)-1]
		if row.Label == "100%-C" || row.Label == "100%-R" || row.Label == "100%-T" {
			homo += avg
			nHomo++
		}
		if lbl := row.Label; len(lbl) >= 5 && lbl[:3] == "50%" && lbl[len(lbl)-3:] == "-F)" {
			nvmF += avg
			nF++
		}
	}
	if nHomo != 3 || nF != 3 {
		t.Fatalf("row accounting wrong: %d homo, %d NVM-F", nHomo, nF)
	}
	if homo/3 < nvmF/3 {
		t.Errorf("homogeneous average (%.2f) should beat NVM-F average (%.2f)",
			homo/3, nvmF/3)
	}
}

// Fig. 11: MetaCube wins everywhere; skip-list lands near the tree.
func TestShapeFig11MetaCubeBest(t *testing.T) {
	r := shapeRunner(t, "KMEANS", "BUFF", "BIT")
	tab, err := r.Fig11()
	if err != nil {
		t.Fatal(err)
	}
	for _, ratioPrefix := range []string{"100%", "50%"} {
		var tV, slV, mcV float64
		for _, row := range tab.Rows {
			if len(row.Label) < len(ratioPrefix) || row.Label[:len(ratioPrefix)] != ratioPrefix {
				continue
			}
			avg := row.Values[len(row.Values)-1]
			switch {
			case row.Label[len(ratioPrefix):len(ratioPrefix)+2] == "-T":
				tV = avg
			case row.Label[len(ratioPrefix):len(ratioPrefix)+3] == "-SL":
				slV = avg
			case row.Label[len(ratioPrefix):len(ratioPrefix)+3] == "-MC":
				mcV = avg
			}
		}
		if !(mcV > tV) {
			t.Errorf("%s: MetaCube (%.1f) must beat tree (%.1f)", ratioPrefix, mcV, tV)
		}
		if slV < tV-12 {
			t.Errorf("%s: skip-list (%.1f) too far below tree (%.1f)", ratioPrefix, slV, tV)
		}
	}
}

// Fig. 12: the augmented arbitration recovers the skip-list's BACKPROP
// loss (the paper's headline workload for the combined techniques).
func TestShapeFig12BackpropRecovery(t *testing.T) {
	r := shapeRunner(t, "BACKPROP")
	rr, err := r.Fig11()
	if err != nil {
		t.Fatal(err)
	}
	aug, err := r.Fig12()
	if err != nil {
		t.Fatal(err)
	}
	before, _ := rr.Cell("100%-SL", "BACKPROP")
	after, _ := aug.Cell("100%-SL", "BACKPROP")
	if after <= before+2 {
		t.Errorf("augmented arbitration did not recover BACKPROP on the skip-list: %.1f -> %.1f",
			before, after)
	}
}

// Fig. 14: capacity halving — all-DRAM barely moves; all-NVM degrades
// most (memory-parallelism loss dominates), with the 50% mixes between.
func TestShapeFig14CapacityOrdering(t *testing.T) {
	r := shapeRunner(t, "KMEANS", "BUFF")
	tab, err := r.Fig14()
	if err != nil {
		t.Fatal(err)
	}
	get := func(label string) float64 {
		row, ok := tab.RowByLabel(label)
		if !ok {
			t.Fatalf("missing row %s", label)
		}
		return row.Values[0]
	}
	full := get("100%-T")
	mix := get("50%-T (NVM-L)")
	none := get("0%-T")
	if !(full > mix && mix > none) {
		t.Errorf("capacity sensitivity ordering broken: 100%%=%.1f 50%%=%.1f 0%%=%.1f",
			full, mix, none)
	}
	if none >= 0 {
		t.Errorf("all-NVM should degrade at 1TB, got %.1f%%", none)
	}
}

// Fig. 15: the paper's three headline energy findings.
func TestShapeFig15Energy(t *testing.T) {
	r := shapeRunner(t, "KMEANS", "BUFF", "BACKPROP")
	tab, err := r.Fig15()
	if err != nil {
		t.Fatal(err)
	}
	net := func(label string) float64 {
		v, ok := tab.Cell(label, "network")
		if !ok {
			t.Fatalf("missing %s", label)
		}
		return v
	}
	total := func(label string) float64 {
		v, _ := tab.Cell(label, "total")
		return v
	}
	// (1) Network energy dominates the all-DRAM chain and shrinks with
	// lower-hop-count topologies: chain > ring > tree.
	if !(net("100%-C") > net("100%-R") && net("100%-R") > net("100%-T")) {
		t.Errorf("network energy ordering: C=%.2f R=%.2f T=%.2f",
			net("100%-C"), net("100%-R"), net("100%-T"))
	}
	// (2) 0%-C cuts network energy by roughly 3x, but write energy lifts
	// its total back to around (or above) the baseline.
	ratio := net("100%-C") / net("0%-C")
	if ratio < 2 || ratio > 5 {
		t.Errorf("0%%-C network reduction %.1fx, want ~3x", ratio)
	}
	if total("0%-C") < 0.85 {
		t.Errorf("0%%-C total %.2f should be near/above the baseline", total("0%-C"))
	}
	// (3) The skip-list spends more network energy than the tree (writes
	// take the long chain).
	if net("100%-SL") <= net("100%-T") {
		t.Errorf("skip-list network energy %.2f not above tree %.2f",
			net("100%-SL"), net("100%-T"))
	}
}

// Fig. 13: fewer host ports degrade performance everywhere; the
// MetaCube, whose hop count barely grows, degrades least.
func TestShapeFig13PortOrdering(t *testing.T) {
	r := shapeRunner(t, "KMEANS", "BUFF")
	tab, err := r.Fig13()
	if err != nil {
		t.Fatal(err)
	}
	avg := func(label string) float64 {
		row, ok := tab.RowByLabel(label)
		if !ok {
			t.Fatalf("missing row %s", label)
		}
		return row.Values[len(row.Values)-1]
	}
	tree := avg("100%-T")
	mc := avg("100%-MC")
	if tree >= 0 || mc >= 0 {
		t.Fatalf("4 ports should degrade loaded workloads: tree %.1f, MC %.1f", tree, mc)
	}
	if mc < tree {
		t.Fatalf("MetaCube (%.1f) should degrade less than tree (%.1f)", mc, tree)
	}
	// All-NVM is the least sensitive mix (memory-latency bound).
	if avg("0%-T") < tree {
		t.Fatalf("all-NVM (%.1f) should degrade less than all-DRAM (%.1f)",
			avg("0%-T"), tree)
	}
}

// Extension: the mesh lands between the ring and the tree — better than
// the linear topologies, worse than the tree, as the paper's §3 argument
// predicts.
func TestShapeMeshBetweenRingAndTree(t *testing.T) {
	r := shapeRunner(t, "KMEANS", "BUFF")
	tab, err := r.ExtMesh()
	if err != nil {
		t.Fatal(err)
	}
	avg := func(label string) float64 {
		row, ok := tab.RowByLabel(label)
		if !ok {
			t.Fatalf("missing %s", label)
		}
		return row.Values[len(row.Values)-1]
	}
	mesh, ring, tree := avg("100%-M"), avg("100%-R"), avg("100%-T")
	if mesh <= 0 {
		t.Fatalf("mesh should beat the chain, got %.1f", mesh)
	}
	if mesh >= tree {
		t.Fatalf("mesh (%.1f) should not beat the tree (%.1f)", mesh, tree)
	}
	_ = ring // the ring/mesh order is load-dependent; only the tree bound is structural
}
