package core

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"memnet/internal/arb"
	"memnet/internal/config"
	"memnet/internal/obs"
	"memnet/internal/sim"
	"memnet/internal/topology"
	"memnet/internal/workload"
)

var updateGolden = flag.Bool("update-golden", false,
	"rewrite testdata golden files from current output")

func kmeans(t *testing.T) workload.Spec {
	t.Helper()
	for _, s := range workload.Suite() {
		if s.Name == "KMEANS" {
			return s
		}
	}
	t.Fatal("KMEANS workload missing from suite")
	return workload.Spec{}
}

// TestTelemetryBitIdentical is the telemetry layer's core guarantee:
// arming the registry, the hot-path instruments, and an aggressive
// sampling interval must leave every Results field — including the raw
// event count — bit-identical to a run without telemetry.
func TestTelemetryBitIdentical(t *testing.T) {
	wl := kmeans(t)
	for _, k := range []topology.Kind{topology.Chain, topology.Tree, topology.SkipList} {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			t.Parallel()
			p := Params{
				Sys:          config.Default(),
				Topo:         k,
				Arb:          arb.RoundRobin,
				Workload:     wl,
				Transactions: 1200,
				Seed:         7,
			}
			plain, err := Simulate(p)
			if err != nil {
				t.Fatal(err)
			}
			p.Obs = &obs.Config{Enabled: true, SampleInterval: 100 * sim.Nanosecond}
			in, err := Build(p)
			if err != nil {
				t.Fatal(err)
			}
			instrumented, err := in.Run()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(plain, instrumented) {
				t.Errorf("telemetry perturbed results\n off: %+v\n  on: %+v", plain, instrumented)
			}
			tel := in.Telemetry
			if tel == nil || tel.Sampler.Samples() == 0 {
				t.Fatal("telemetry armed but no samples recorded")
			}
			// The instruments saw the whole run: every completion in the
			// latency histogram and the service vector.
			d := tel.Registry.Dump()
			var hist *obs.HistDump
			for i := range d.Histograms {
				if d.Histograms[i].Name == "host.latency_ps" {
					hist = &d.Histograms[i]
				}
			}
			if hist == nil || hist.Count != plain.Transactions {
				t.Fatalf("latency histogram count %+v, want %d", hist, plain.Transactions)
			}
			for _, v := range d.Vecs {
				if v.Name != "cube.service" {
					continue
				}
				var sum uint64
				for _, x := range v.Values {
					sum += x
				}
				if sum != plain.Transactions {
					t.Errorf("cube.service sums to %d, want %d", sum, plain.Transactions)
				}
				if v.Jain <= 0 || v.Jain > 1 {
					t.Errorf("service Jain index %v out of (0,1]", v.Jain)
				}
			}
		})
	}
}

// TestManifestValidates: the emitted run manifest conforms to the
// checked-in schema, with and without telemetry.
func TestManifestValidates(t *testing.T) {
	wl := kmeans(t)
	for _, withObs := range []bool{false, true} {
		p := Params{
			Sys:          config.Default(),
			Topo:         topology.Tree,
			Arb:          arb.RoundRobin,
			Workload:     wl,
			Transactions: 300,
			Seed:         7,
		}
		if withObs {
			p.Obs = &obs.Config{Enabled: true, SampleInterval: sim.Microsecond}
		}
		in, err := Build(p)
		if err != nil {
			t.Fatal(err)
		}
		res, err := in.Run()
		if err != nil {
			t.Fatal(err)
		}
		m := in.Manifest(res)
		var buf bytes.Buffer
		if err := m.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		if err := obs.ValidateManifestJSON(buf.Bytes()); err != nil {
			t.Errorf("manifest (telemetry=%v) fails schema: %v\n%s", withObs, err, buf.String())
		}
		if withObs && m.Metrics == nil {
			t.Error("telemetry manifest missing metrics dump")
		}
		if !withObs && m.Metrics != nil {
			t.Error("plain manifest carries metrics dump")
		}
	}
}

// TestPerfettoGolden pins the counter-only Perfetto export (telemetry
// armed, no span recorder) of a small fixed-seed run byte for byte:
// identical seeds must serialize identical traces (stable event
// ordering is what makes the export diffable across hosts).
// TestSpansPerfettoGolden pins the export with span slices added.
// Regenerate with -update-golden after an intentional change.
func TestPerfettoGolden(t *testing.T) {
	wl := kmeans(t)
	in, err := Build(Params{
		Sys:          config.Default(),
		Topo:         topology.Chain,
		Arb:          arb.RoundRobin,
		Workload:     wl,
		Transactions: 25,
		Seed:         7,
		Obs:          &obs.Config{Enabled: true, SampleInterval: 60 * sim.Nanosecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := in.Run(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := obs.WritePerfetto(&buf, in.Telemetry.Sampler, nil); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "perfetto_golden.json")
	if *updateGolden {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", golden, buf.Len())
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update-golden to create)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("perfetto export drifted from golden (%d vs %d bytes); rerun with -update-golden after verifying the change is intentional",
			buf.Len(), len(want))
	}
}
