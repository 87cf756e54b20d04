package core

import (
	"reflect"
	"strings"
	"testing"

	"memnet/internal/arb"
	"memnet/internal/config"
	"memnet/internal/obs"
	"memnet/internal/span"
	"memnet/internal/topology"
	"memnet/internal/workload"
)

func machineBase(t *testing.T, topo topology.Kind, txns uint64) Params {
	t.Helper()
	var wl workload.Spec
	for _, s := range workload.Suite() {
		if s.Name == "KMEANS" {
			wl = s
		}
	}
	if wl.Name == "" {
		t.Fatal("KMEANS workload missing from suite")
	}
	return Params{
		Sys:          config.Default(),
		Topo:         topo,
		Arb:          arb.RoundRobin,
		Workload:     wl,
		Transactions: txns,
		Seed:         7,
	}
}

// TestMachineShardCountInvariant is the core bit-identity acceptance
// check: a whole-machine run must produce exactly the same
// MachineResults — every per-port field included — whether it runs on
// one worker goroutine or four, across every topology family.
func TestMachineShardCountInvariant(t *testing.T) {
	for _, k := range []topology.Kind{topology.Chain, topology.Ring, topology.Tree, topology.SkipList} {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			t.Parallel()
			base := machineBase(t, k, 400)
			seq, err := RunMachine(MachineParams{Base: base, Shards: 1})
			if err != nil {
				t.Fatal(err)
			}
			par, err := RunMachine(MachineParams{Base: base, Shards: 4})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(seq, par) {
				t.Errorf("shards=1 vs shards=4 results differ\n seq: %+v\n par: %+v", seq, par)
			}
		})
	}
}

// TestMachinePortZeroMatchesSingleRun pins the seed-derivation contract:
// port 0 keeps the base seed, so its Results must equal a standalone
// single-port Simulate of the same params, bit for bit.
func TestMachinePortZeroMatchesSingleRun(t *testing.T) {
	base := machineBase(t, topology.Ring, 400)
	single, err := Simulate(base)
	if err != nil {
		t.Fatal(err)
	}
	mr, err := RunMachine(MachineParams{Base: base, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(mr.PerPort) != base.Sys.Ports {
		t.Fatalf("got %d port results, want %d", len(mr.PerPort), base.Sys.Ports)
	}
	if !reflect.DeepEqual(mr.PerPort[0], single) {
		t.Errorf("port 0 drifted from the single-port run\n port0: %+v\nsingle: %+v", mr.PerPort[0], single)
	}
}

// TestMachinePortsDecorrelated checks the other ports run distinct
// traffic: identical per-port results would mean the seed stride is
// dead and the "machine" is eight copies of one simulation.
func TestMachinePortsDecorrelated(t *testing.T) {
	mr, err := RunMachine(MachineParams{Base: machineBase(t, topology.Tree, 400), Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(mr.PerPort[0], mr.PerPort[1]) {
		t.Error("ports 0 and 1 produced identical results; per-port seeds are not applied")
	}
	if mr.Fairness <= 0 || mr.Fairness > 1 {
		t.Errorf("Jain fairness = %v, want (0, 1]", mr.Fairness)
	}
	var sum uint64
	for _, r := range mr.PerPort {
		sum += r.Transactions
	}
	if mr.Transactions != sum {
		t.Errorf("aggregate transactions %d != per-port sum %d", mr.Transactions, sum)
	}
}

// TestMachineRejectsUnmergeable pins the validation errors for modes
// whose outputs have no defined cross-port merge.
func TestMachineRejectsUnmergeable(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Params)
		want string
	}{
		{"record", func(p *Params) { p.Record = true }, "Record"},
		// What mnsim -trace 8 arms: the span recorder on the first 8
		// transactions.
		{"trace", func(p *Params) { p.Spans = &span.Config{SampleStride: 1, MaxSpans: 8} }, "span tracing"},
		{"telemetry", func(p *Params) { p.Obs = &obs.Config{Enabled: true} }, "telemetry"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := machineBase(t, topology.Ring, 100)
			c.mut(&p)
			_, err := RunMachine(MachineParams{Base: p, Shards: 1})
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("err = %v, want mention of %q", err, c.want)
			}
		})
	}
}
