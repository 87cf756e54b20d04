package campaign

import (
	"encoding/json"
	"math"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"memnet/internal/config"
	"memnet/internal/core"
	"memnet/internal/fault"
	"memnet/internal/scenario"
	"memnet/internal/sim"
	"memnet/internal/workload"
)

// Bounds of one FuzzRunSpec input: its transactions are clamped to
// fuzzTxns, and a run that has not completed them within fuzzEvents
// events hangs. A run of fuzzTxns fires a few thousand events.
const (
	fuzzTxns   = 200
	fuzzEvents = 2_000_000
)

// FuzzRunSpec decodes bytes as the JSON of a cache view (view) into a
// run description, with Graph decoded as a scenario document into
// Params.Scenario, then resolves it, builds it and runs it. Every input
// must either fail in Resolved or Build with an error that names a
// field of the run, or complete all its transactions: no panic, no
// hang, and no allocation sized by an unbounded field. A run with an
// enabled fault config runs under the progress watchdog and may also
// end with the watchdog's error: faults may drop a transaction's
// packets (fault.Config.MaxRetries) or stall every one of them, and
// the watchdog's window may be shorter than a slow run's transactions.
func FuzzRunSpec(f *testing.F) {
	// Seeds: the default run, and the default run with one field at a
	// value that once panicked, exhausted memory or never finished, so
	// plain go test keeps each bound and mutation starts beside it.
	wl, err := workload.ByName("KMEANS")
	if err != nil {
		f.Fatal(err)
	}
	for _, mut := range []func(*view){
		func(*view) {},
		func(v *view) { v.Sys.DRAMTiming.RefInterval = 1 },
		func(v *view) { v.Sys.LaneRateBps = math.MaxInt64 / 2 },
		func(v *view) { v.Sys.LaneRateBps = 1 },
		func(v *view) { v.Sys.RowBytes = 0 },
		func(v *view) { v.Sys.NVMCubeCapacity, v.Sys.DRAMCubeCapacity = 1<<60, 1<<20 },
		func(v *view) { v.Sys.MaxOutstanding = 1 << 26 },
		func(v *view) { v.Sys.BanksPerCube = 1 << 24 },
		func(v *view) { v.Sys.SerDesLatency = sim.Second },
		func(v *view) { v.Sys.DRAMTiming.TRCD = -sim.Second },
		func(v *view) { v.Tuning.ShortcutWindow = 1 << 30 },
		func(v *view) { v.Tuning.SwitchBandwidthBps = 1 },
		func(v *view) { v.Workload.MeanGap = sim.Second },
		func(v *view) { v.Workload.HotFraction, v.Workload.HotRegion = 1, 1e30 },
		func(v *view) { v.Fault = &fault.Config{LinkBER: 1e-3, MaxRetries: 1} },
	} {
		v := view{Sys: config.Default(), Workload: wl, Transactions: fuzzTxns, Seed: 1, Tuning: core.DefaultTuning()}
		mut(&v)
		b, err := json.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var v view
		if err := json.Unmarshal(data, &v); err != nil {
			return
		}
		p := core.Params{
			Sys:          v.Sys,
			Arb:          v.Arb,
			Workload:     v.Workload,
			Transactions: min(v.Transactions, fuzzTxns),
			Seed:         v.Seed,
			Tuning:       v.Tuning,
		}
		faulty := v.Fault.Enabled()
		if faulty {
			fc := *v.Fault
			fc.Watchdog = true
			p.Fault = &fc
		}
		if len(v.Graph) > 0 && string(v.Graph) != "null" {
			s, err := scenario.Decode(v.Graph)
			if err != nil {
				return // FuzzScenarioDecode covers the decoder
			}
			p.Scenario = s
		}
		r, err := p.Resolved()
		if err != nil {
			checkFieldError(t, err)
			return
		}
		in, err := core.Build(r)
		if err != nil {
			checkFieldError(t, err)
			return
		}
		events := 0
		in.Eng.RunWhile(func() bool {
			events++
			return events <= fuzzEvents && !in.Port.Done() && !(faulty && in.Watchdog.Tripped())
		})
		if events > fuzzEvents {
			t.Fatalf("%d of %d transactions after %d events at %v", in.Collector.Completed(), r.Transactions, fuzzEvents, in.Eng.Now())
		}
		res, err := in.Run()
		if faulty && in.Watchdog.Tripped() {
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		if res.Transactions != r.Transactions {
			t.Fatalf("completed %d of %d transactions", res.Transactions, r.Transactions)
		}
	})
}

// runFields is every exported field name in a run description: the
// fields of Params' structs and of the view's, which an error about
// the run must name.
var runFields = func() map[string]bool {
	names := map[string]bool{}
	var walk func(t reflect.Type)
	walk = func(t reflect.Type) {
		switch t.Kind() {
		case reflect.Pointer, reflect.Slice:
			walk(t.Elem())
		case reflect.Struct:
			for i := 0; i < t.NumField(); i++ {
				if f := t.Field(i); f.IsExported() && !names[f.Name] {
					names[f.Name] = true
					walk(f.Type)
				}
			}
		}
	}
	walk(reflect.TypeOf(core.Params{}))
	walk(reflect.TypeOf(view{}))
	return names
}()

// word splits an error message into candidate field names.
var word = regexp.MustCompile(`[A-Za-z][A-Za-z0-9]*`)

// checkFieldError requires err to name the field at fault: a field of
// the run description, or for the graph a scenario document path
// (links[3], nodes[1], routers.4, topology).
func checkFieldError(t *testing.T, err error) {
	t.Helper()
	msg := err.Error()
	if strings.HasPrefix(msg, "scenario: ") || strings.HasPrefix(msg, "core: routers.") {
		return
	}
	for _, w := range word.FindAllString(msg, -1) {
		if runFields[w] {
			return
		}
	}
	t.Fatalf("error %q names no field of the run", msg)
}
