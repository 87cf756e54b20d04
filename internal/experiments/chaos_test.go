package experiments

import (
	"reflect"
	"strings"
	"testing"

	"memnet/internal/core"
)

// TestChaosQuick runs the chaos validation harness at reduced scale:
// the harness itself machine-checks conservation, determinism,
// schedule application, and route-back, so a returned table means the
// invariants held on every topology.
func TestChaosQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos sweep")
	}
	r := NewRunner(QuickOptions())
	tab, err := r.Chaos()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != len(chaosTopos) {
		t.Fatalf("got %d rows, want %d", len(tab.Rows), len(chaosTopos))
	}
	sawRepair := false
	for _, row := range tab.Rows {
		// Columns: link kills, cube kills, lane flaps, ...
		if row.Values[0]+row.Values[1]+row.Values[2] > 0 {
			sawRepair = true
		}
	}
	if !sawRepair {
		t.Error("no topology received any chaos event")
	}
	t.Logf("\n%s", tab.Text())
}

// TestChaosScheduleStable: the generated schedule is a pure function
// of the options — two runners with the same options derive identical
// fault configs (the campaign-fingerprint stability requirement).
func TestChaosScheduleStable(t *testing.T) {
	opts := QuickOptions()
	r := NewRunner(opts)
	wl := r.Opts.suite()[0]
	cfg := MNConfig{Topo: chaosTopos[1], DRAMFraction: 1.0}
	a, err := chaosFault(r.params(cfg, wl), opts, wl)
	if err != nil {
		t.Fatal(err)
	}
	b, err := chaosFault(NewRunner(opts).params(cfg, wl), opts, wl)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("chaos schedules differ between identical runners:\n a: %+v\n b: %+v", a, b)
	}
}

// TestChaosReplayBypassesSim: the determinism replay runs on
// core.Simulate, not on the Sim backend, so a backend whose Results
// differ from a fresh simulation (a cache serving a stale entry) fails
// the check instead of being compared with itself.
func TestChaosReplayBypassesSim(t *testing.T) {
	opts := QuickOptions()
	opts.Transactions = 400
	opts.Workloads = []string{"KMEANS"}
	r := NewRunner(opts)
	r.Sim = func(p core.Params) (core.Results, error) {
		res, err := core.Simulate(p)
		res.FinishTime++
		return res, err
	}
	if _, err := r.Chaos(); err == nil || !strings.Contains(err.Error(), "nondeterministic") {
		t.Fatalf("Chaos over a Sim that disagrees with core.Simulate: err = %v, want nondeterministic", err)
	}
}
