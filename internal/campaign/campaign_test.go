package campaign

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"memnet/internal/core"
	"memnet/internal/experiments"
)

// tinyOpts keeps campaign tests fast: two workloads, short traces.
func tinyOpts() experiments.Options {
	return experiments.Options{
		Transactions: 50,
		Seed:         1,
		Workloads:    []string{"KMEANS", "NW"},
		Parallel:     2,
	}
}

// renderAll runs every figure and table through the runner and returns
// the concatenated text tables plus the campaign manifest JSON — the
// byte surface a warm cache must reproduce exactly.
func renderAll(t *testing.T, opts experiments.Options, sim experiments.SimFunc) ([]byte, []byte) {
	t.Helper()
	r := experiments.NewRunner(opts)
	r.Sim = sim
	var text bytes.Buffer
	manifest := experiments.NewRunManifest(opts)
	for _, f := range r.Figures() {
		tab, err := f.Fn()
		if err != nil {
			t.Fatalf("%s: %v", f.ID, err)
		}
		manifest.Add(tab)
		text.WriteString(tab.Text())
	}
	var mjson bytes.Buffer
	if err := manifest.Encode(&mjson); err != nil {
		t.Fatal(err)
	}
	return text.Bytes(), mjson.Bytes()
}

// TestWarmCacheByteIdentical is the end-to-end cache test: a cold
// CachedSim pass fills a store, and a warm pass over it, with a backend
// that refuses to simulate, must render byte-identical tables and
// manifest JSON to the cold pass while simulating nothing (asserted
// through the Counter hook).
func TestWarmCacheByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign execution")
	}
	opts := tinyOpts()
	store, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var cold Counter
	wantText, wantJSON := renderAll(t, opts, CachedSim(store, nil, &cold))
	if cold.Misses() == 0 {
		t.Fatal("cold pass simulated nothing")
	}

	var warm Counter
	forbid := func(r *core.Run) (core.Results, error) {
		p := r.Params()
		return core.Results{}, fmt.Errorf("warm cache required a simulation: %s/%s",
			p.Label(), p.Workload.Name)
	}
	gotText, gotJSON := renderAll(t, opts, CachedSim(store, forbid, &warm))
	if warm.Misses() != 0 {
		t.Errorf("warm-cache regeneration simulated %d times, want 0", warm.Misses())
	}
	if warm.Hits() == 0 {
		t.Error("warm-cache regeneration never hit the cache")
	}
	if !bytes.Equal(gotText, wantText) {
		t.Errorf("warm tables differ from the cold pass (%d vs %d bytes)",
			len(gotText), len(wantText))
	}
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Errorf("warm manifest differs from the cold pass")
	}
}

// TestManifestSchemaStable pins the manifest JSON surface mndocs
// consumes: schema id and the lower-case table keys.
func TestManifestSchemaStable(t *testing.T) {
	m := experiments.NewRunManifest(tinyOpts())
	m.Add(&experiments.Table{
		ID: "figX", Title: "T", Columns: []string{"a"},
		Rows: []experiments.Row{{Label: "r", Values: []float64{1}}},
		Unit: "u",
	})
	var buf bytes.Buffer
	if err := m.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc["schema"] != experiments.CampaignSchema {
		t.Fatalf("schema = %v", doc["schema"])
	}
	tables := doc["tables"].([]any)
	tab := tables[0].(map[string]any)
	for _, key := range []string{"id", "title", "columns", "rows", "unit"} {
		if _, ok := tab[key]; !ok {
			t.Errorf("table JSON missing %q: %v", key, tab)
		}
	}
	opts := doc["options"].(map[string]any)
	if _, leaked := opts["Parallel"]; leaked {
		t.Error("machine-local Parallel leaked into the manifest")
	}
}
