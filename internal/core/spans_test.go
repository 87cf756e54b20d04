package core

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"memnet/internal/arb"
	"memnet/internal/config"
	"memnet/internal/fault"
	"memnet/internal/obs"
	"memnet/internal/packet"
	"memnet/internal/sim"
	"memnet/internal/span"
	"memnet/internal/stats"
	"memnet/internal/topology"
	"memnet/internal/workload"
)

// TestSpansBitIdentical is the span layer's core guarantee: arming the
// recorder on every hook (host inject, router grant, link ship, vault
// issue, completion) must leave every Results field bit-identical to an
// untraced run, and two traced runs must serialize byte-identical span
// files.
func TestSpansBitIdentical(t *testing.T) {
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
			run := func() (Results, []byte) {
				q := p
				q.Spans = &span.Config{SampleStride: 4}
				in, err := Build(q)
				if err != nil {
					t.Fatal(err)
				}
				res, err := in.Run()
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if err := in.WriteSpans(&buf); err != nil {
					t.Fatal(err)
				}
				return res, buf.Bytes()
			}
			traced, file1 := run()
			if !reflect.DeepEqual(plain, traced) {
				t.Errorf("span tracing perturbed results\n off: %+v\n  on: %+v", plain, traced)
			}
			_, file2 := run()
			if !bytes.Equal(file1, file2) {
				t.Error("identical traced runs serialized different span files")
			}
			hdr, spans, err := span.Read(bytes.NewReader(file1))
			if err != nil {
				t.Fatal(err)
			}
			if hdr.Stride != 4 || hdr.Spans != len(spans) || len(spans) == 0 {
				t.Fatalf("header %+v does not match %d parsed spans", hdr, len(spans))
			}
			if err := span.Check(spans); err != nil {
				t.Errorf("span file fails structural check: %v", err)
			}
		})
	}
}

// TestSpansAttribution pins the tentpole acceptance criterion: on a
// fig4-style run every picosecond of sampled end-to-end latency is
// attributed to an enumerated cause (the segments tile the injection-
// to-completion window exactly, so attribution is 100%, well above the
// required 99%).
func TestSpansAttribution(t *testing.T) {
	wl := kmeans(t)
	in, err := Build(Params{
		Sys:          config.Default(),
		Topo:         topology.Tree,
		Arb:          arb.RoundRobin,
		Workload:     wl,
		Transactions: 2000,
		Seed:         1,
		Spans:        &span.Config{SampleStride: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := in.Run(); err != nil {
		t.Fatal(err)
	}
	spans := in.Spans.Spans()
	if len(spans) < 100 {
		t.Fatalf("only %d spans sampled", len(spans))
	}
	a := span.Analyze(spans)
	if got := a.Attribution(); got < 0.99 {
		t.Errorf("attribution %.4f < 0.99 of sampled mean latency", got)
	}
	// Exact tiling: attributed picoseconds equal the summed end-to-end
	// windows on a fault-free run.
	if a.AttributedPs != a.TotalPs {
		t.Errorf("attributed %d ps != total %d ps (segments do not tile the window)", a.AttributedPs, a.TotalPs)
	}
	for _, c := range []span.Cause{span.LinkSer, span.LinkSerDes, span.RouterArb, span.VaultService} {
		if a.ByCause[c] == 0 {
			t.Errorf("cause %v attributed zero time over %d spans", c, len(spans))
		}
	}
}

// TestSpansUnderFaults checks the recorder stays structurally sound
// when retries, kills, and repairs bend packet paths: every span still
// passes Check and retry segments appear.
func TestSpansUnderFaults(t *testing.T) {
	wl := kmeans(t)
	in, err := Build(Params{
		Sys:          config.Default(),
		Topo:         topology.Ring,
		Arb:          arb.RoundRobin,
		Workload:     wl,
		Transactions: 1500,
		Seed:         3,
		Spans:        &span.Config{SampleStride: 2},
		Fault: &fault.Config{
			LinkBER:     1e-5,
			KillLinks:   []fault.LinkKill{{Edge: 2, At: 500 * sim.Nanosecond}},
			RepairLinks: []fault.LinkRepair{{Edge: 2, At: 1200 * sim.Nanosecond}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := in.Run()
	if err != nil {
		t.Fatal(err)
	}
	spans := in.Spans.Spans()
	if len(spans) == 0 {
		t.Fatal("no spans under faults")
	}
	if err := span.Check(spans); err != nil {
		t.Errorf("faulty-run spans fail structural check: %v", err)
	}
	if res.Fault.Retries > 0 {
		a := span.Analyze(spans)
		if a.ByCause[span.LinkRetry] == 0 {
			t.Errorf("%d link retries occurred but no link.retry time attributed", res.Fault.Retries)
		}
	}
}

// TestSpansChainRoute is a route oracle: on a chain, every transaction
// crosses h>1, 1>2, …, d>qK to the quadrant K owning its address, then
// qK>d, …, 2>1, 1>h back, with no hop missing or repeated, and is served
// at vault vd.qK. Every link traversal leaves at least its
// serialization segment, so the distinct edge labels of a span's link
// segments, in time order, are exactly its path.
func TestSpansChainRoute(t *testing.T) {
	wl, _ := workload.ByName("NW")
	p := testParams(topology.Chain, 1.0, config.NVMLast, arb.RoundRobin, wl)
	p.Transactions = 300
	p.Spans = &span.Config{SampleStride: 1}
	in, err := Build(p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := in.Run()
	if err != nil {
		t.Fatal(err)
	}
	spans := in.Spans.Spans()
	if uint64(len(spans)) != res.Transactions || in.Spans.Dropped() != 0 {
		t.Fatalf("%d spans (%d dropped) for %d transactions", len(spans), in.Spans.Dropped(), res.Transactions)
	}
	if err := span.Check(spans); err != nil {
		t.Fatal(err)
	}
	node := func(n int) string {
		if n == 0 {
			return "h"
		}
		return fmt.Sprint(n)
	}
	for _, sp := range spans {
		cube, quad, _, _ := in.Mapper.Decompose(sp.Addr)
		d := int(sp.Dst)
		if packet.NodeID(d) != cube {
			t.Fatalf("tx %d: dst %d, but address %#x lives on cube %d", sp.ID, d, sp.Addr, cube)
		}
		var want []string
		for n := 0; n < d; n++ {
			want = append(want, node(n)+">"+node(n+1))
		}
		want = append(want, fmt.Sprintf("%d>q%d", d, quad), fmt.Sprintf("q%d>%d", quad, d))
		for n := d; n > 0; n-- {
			want = append(want, node(n)+">"+node(n-1))
		}
		var got []string
		served := false
		for _, sg := range sp.Segs {
			switch sg.Cause {
			case span.LinkQueue, span.LinkRetry, span.LinkSer, span.LinkSerDes:
				if len(got) == 0 || got[len(got)-1] != sg.Loc {
					got = append(got, sg.Loc)
				}
			case span.VaultService:
				served = sg.Loc == fmt.Sprintf("v%d.q%d", d, quad)
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("tx %d to cube %d quadrant %d crossed %v, want %v", sp.ID, d, quad, got, want)
		}
		if !served {
			t.Fatalf("tx %d has no vault.service segment at v%d.q%d: %+v", sp.ID, d, quad, sp.Segs)
		}
	}
}

// TestSpansMatchBreakdown derives Fig. 5's to/in/from-memory split a
// second, independent way. At stride 1 every transaction has a span;
// memory arrival is the start of its vault.queue segment (or of
// vault.service when it never queued) and memory departure is the end
// of vault.service. The span means must equal Results.Breakdown, which
// the stats collector computes from packet timestamps, to the
// picosecond. All-DRAM vaults never queue at this load, so a 50% NVM
// skip list, whose PCM vaults do, covers the vault.queue branch.
func TestSpansMatchBreakdown(t *testing.T) {
	wl := kmeans(t)
	cases := []struct {
		topo      topology.Kind
		dram      float64
		wantQueue bool
	}{
		{topology.Chain, 1, false},
		{topology.Tree, 1, false},
		{topology.SkipList, 1, false},
		{topology.MetaCube, 1, false},
		{topology.SkipList, 0.5, true},
	}
	for _, c := range cases {
		c := c
		t.Run(fmt.Sprintf("%v-%.0f%%", c.topo, c.dram*100), func(t *testing.T) {
			t.Parallel()
			sys := config.Default()
			sys.DRAMFraction = c.dram
			in, err := Build(Params{
				Sys:          sys,
				Topo:         c.topo,
				Arb:          arb.DistanceAugmented,
				Workload:     wl,
				Transactions: 3000,
				Seed:         1,
				Spans:        &span.Config{SampleStride: 1},
			})
			if err != nil {
				t.Fatal(err)
			}
			res, err := in.Run()
			if err != nil {
				t.Fatal(err)
			}
			spans := in.Spans.Spans()
			if uint64(len(spans)) != res.Transactions || in.Spans.Dropped() != 0 {
				t.Fatalf("%d spans (%d dropped) for %d transactions", len(spans), in.Spans.Dropped(), res.Transactions)
			}
			var to, inMem, from sim.Time
			queued := 0
			for _, sp := range spans {
				arrived, departed := sim.Time(-1), sim.Time(-1)
				for _, sg := range sp.Segs {
					switch sg.Cause {
					case span.VaultQueue:
						arrived = sg.At
						queued++
					case span.VaultService:
						if arrived < 0 {
							arrived = sg.At
						}
						departed = sg.At + sg.Dur
					}
				}
				if departed < 0 {
					t.Fatalf("tx %d has no vault.service segment", sp.ID)
				}
				to += arrived - sp.Injected
				inMem += departed - arrived
				from += sp.Completed - departed
			}
			if c.wantQueue && queued == 0 {
				t.Fatal("no transaction queued at a vault; the vault.queue branch is untested")
			}
			n := sim.Time(len(spans))
			got := stats.Breakdown{ToMem: to / n, InMem: inMem / n, FromMem: from / n}
			if got != res.Breakdown {
				t.Fatalf("span breakdown %+v != Results.Breakdown %+v", got, res.Breakdown)
			}
			t.Logf("%d txns, %d queued: to %d ps, in %d ps, from %d ps", n, queued, got.ToMem, got.InMem, got.FromMem)
		})
	}
}

// TestSpansSamplerDeterminism pins the stride sampler: sampling is a
// pure function of (ID, seed), no RNG, so the sampled ID set is stable.
func TestSpansSamplerDeterminism(t *testing.T) {
	r := span.NewRecorder(span.Config{SampleStride: 8}, 21)
	for id := uint64(0); id < 64; id++ {
		want := id%8 == 21%8
		if got := r.Sampled(id); got != want {
			t.Fatalf("Sampled(%d) = %v, want %v", id, got, want)
		}
	}
}

// TestSpansPerfettoGolden pins the Perfetto export (counter tracks,
// span slices and flow arrows) byte for byte. The 60 ns sample interval
// puts three counter ticks inside the 0.18 µs run, so both process
// groups are pinned. Regenerate with -update-golden after an
// intentional change.
func TestSpansPerfettoGolden(t *testing.T) {
	wl := kmeans(t)
	in, err := Build(Params{
		Sys:          config.Default(),
		Topo:         topology.Chain,
		Arb:          arb.RoundRobin,
		Workload:     wl,
		Transactions: 25,
		Seed:         7,
		Obs:          &obs.Config{Enabled: true, SampleInterval: 60 * sim.Nanosecond},
		Spans:        &span.Config{SampleStride: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := in.Run(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := obs.WritePerfetto(&buf, in.Telemetry.Sampler, in.Spans.Spans()); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "perfetto_spans_golden.json")
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
		t.Errorf("perfetto span export drifted from golden (%d vs %d bytes); rerun with -update-golden after verifying the change is intentional",
			buf.Len(), len(want))
	}
}

// TestTimelineInManifest: a kill/repair run's manifest carries the
// recovery timeline — retrain window bounds and per-direction healed
// bits on the repair — and still validates against the schema.
func TestTimelineInManifest(t *testing.T) {
	wl := kmeans(t)
	in, err := Build(Params{
		Sys:          config.Default(),
		Topo:         topology.Ring,
		Arb:          arb.RoundRobin,
		Workload:     wl,
		Transactions: 1500,
		Seed:         3,
		Fault: &fault.Config{
			KillLinks:   []fault.LinkKill{{Edge: 2, At: 500 * sim.Nanosecond}},
			RepairLinks: []fault.LinkRepair{{Edge: 2, At: 1200 * sim.Nanosecond}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := in.Run()
	if err != nil {
		t.Fatal(err)
	}
	m := in.Manifest(res)
	tl, ok := m.Timeline.([]TimelineEvent)
	if !ok || len(tl) != 2 {
		t.Fatalf("timeline = %#v, want 2 events", m.Timeline)
	}
	if tl[0].Kind != "kill_link" || tl[0].Edge == nil || *tl[0].Edge != 2 {
		t.Errorf("timeline[0] = %+v, want kill_link on edge 2", tl[0])
	}
	rep := tl[1]
	if rep.Kind != "repair_link" || rep.StartPs == nil || *rep.StartPs != int64(1200*sim.Nanosecond) {
		t.Errorf("timeline[1] = %+v, want repair_link starting at 1.2us", rep)
	}
	if rep.AtPs <= *rep.StartPs {
		t.Errorf("repair completes at %d, not after retrain start %d", rep.AtPs, *rep.StartPs)
	}
	if rep.HealedBitsAB == nil || rep.HealedBitsBA == nil {
		t.Fatal("repair_link timeline entry missing healed-bits counters")
	}
	if res.Fault.HealedBits > 0 && *rep.HealedBitsAB+*rep.HealedBitsBA == 0 {
		t.Errorf("run healed %d bits but the timeline entry shows zero", res.Fault.HealedBits)
	}
	var buf bytes.Buffer
	if err := m.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateManifestJSON(buf.Bytes()); err != nil {
		t.Errorf("timeline manifest fails schema: %v\n%s", err, buf.String())
	}
}

// TestMachineManifestGauges: machine runs carry a per-port load record
// (events, finish time, barrier wait) for every worker count, the
// record is identical across -shards values, and the manifest
// validates.
func TestMachineManifestGauges(t *testing.T) {
	wl := kmeans(t)
	base := Params{
		Sys:          config.Default(),
		Topo:         topology.Tree,
		Arb:          arb.RoundRobin,
		Workload:     wl,
		Transactions: 300,
		Seed:         1,
	}
	var prev *MachineResults
	for _, shards := range []int{2, 4} {
		mp := MachineParams{Base: base, Shards: shards}
		mr, err := RunMachine(mp)
		if err != nil {
			t.Fatal(err)
		}
		if len(mr.Shards) != base.Sys.Ports {
			t.Fatalf("shards=%d: %d shard records, want %d", shards, len(mr.Shards), base.Sys.Ports)
		}
		var sawWait bool
		for i, sl := range mr.Shards {
			if sl.Shard != i || sl.Events != mr.PerPort[i].Events || sl.FinishPs != int64(mr.PerPort[i].FinishTime) || sl.FinishPs == 0 {
				t.Errorf("shards=%d: degenerate shard record %+v", shards, sl)
			}
			if sl.BarrierWaitPs > 0 {
				sawWait = true
			}
			if sl.BarrierWaitPs != int64(mr.FinishTime)-sl.FinishPs {
				t.Errorf("shards=%d: shard %d barrier wait %d != finish spread", shards, i, sl.BarrierWaitPs)
			}
		}
		if !sawWait {
			t.Errorf("shards=%d: every port finished at the same instant (no barrier wait recorded)", shards)
		}
		if prev != nil && !reflect.DeepEqual(*prev, mr) {
			t.Errorf("machine results (introspection included) differ across shard counts")
		}
		prev = &mr
		m := MachineManifest(mp, mr)
		var buf bytes.Buffer
		if err := m.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		if err := obs.ValidateManifestJSON(buf.Bytes()); err != nil {
			t.Errorf("machine manifest fails schema: %v\n%s", err, buf.String())
		}
		rec, ok := m.Machine.(MachineRecord)
		if !ok || rec.Ports != base.Sys.Ports || !reflect.DeepEqual(rec.Shards, mr.Shards) {
			t.Errorf("machine record %+v inconsistent with results", m.Machine)
		}
	}
}

// TestMachineRejectsSpans: RunMachine refuses span tracing the same way
// it refuses traces and telemetry.
func TestMachineRejectsSpans(t *testing.T) {
	wl := kmeans(t)
	base := Params{
		Sys:          config.Default(),
		Topo:         topology.Tree,
		Arb:          arb.RoundRobin,
		Workload:     wl,
		Transactions: 100,
		Seed:         1,
		Spans:        &span.Config{SampleStride: 4},
	}
	if _, err := RunMachine(MachineParams{Base: base, Shards: 2}); err == nil {
		t.Fatal("RunMachine accepted Params.Spans")
	}
}
