package main

import (
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"memnet"
	"memnet/internal/arb"
	"memnet/internal/config"
	"memnet/internal/core"
	"memnet/internal/energy"
	"memnet/internal/host"
	"memnet/internal/link"
	"memnet/internal/packet"
	"memnet/internal/router"
	"memnet/internal/sim"
	"memnet/internal/stats"
	"memnet/internal/topology"
	"memnet/internal/vault"
	traffic "memnet/internal/workload"
)

// benchRepeats is how often each layer microbenchmark runs; it reports the
// median repeat.
const benchRepeats = 5

// layerBench drives one component through its public API against stub
// neighbours. setup builds the component and returns the loop, which
// performs ops operations and reports how many it completed; only the
// loop is timed. The operation counts keep one repeat near 30 ms on a
// 2-CPU x86 container, so all of them together take about 2 s.
type layerBench struct {
	timeMetric, allocMetric string
	unit                    time.Duration // timeMetric's unit per operation
	ops                     int
	setup                   func(seed uint64) (loop func(ops int) (int, error), err error)
}

var layerBenches = []layerBench{
	{"sim.ns_per_event", "sim.allocs_per_event", time.Nanosecond, 300_000, simBench},
	{"router.ns_per_forward", "router.allocs_per_forward", time.Nanosecond, 40_000, routerBench},
	{"link.ns_per_packet", "link.allocs_per_packet", time.Nanosecond, 200_000, linkBench},
	{"vault.ns_per_access", "vault.allocs_per_access", time.Nanosecond, 40_000, vaultBench},
	{"host.ns_per_txn", "host.allocs_per_txn", time.Nanosecond, 40_000, hostBench},
	{"workload.ns_per_tx", "workload.allocs_per_tx", time.Nanosecond, 500_000, workloadBench},
	{"packet.ns_per_getput", "packet.allocs_per_getput", time.Nanosecond, 2_000_000, packetBench},
	{"scenario.decode_us", "scenario.decode_allocs", time.Microsecond, 100, decodeBench},
	{"topology.build_us", "topology.build_allocs", time.Microsecond, 200, topologyBench},
	{"core.build_us", "core.build_allocs", time.Microsecond, 100, coreBuildBench},
}

// runLayerBenches measures every layer microbenchmark, benchRepeats
// times each, and returns the median time and allocation count per
// operation. A panic in the component code becomes the error.
func runLayerBenches(seed uint64, scale float64) (_ map[string]value, err error) {
	defer recoverInto(&err)
	out := map[string]value{}
	for _, d := range layerBenches {
		ops := max(1, int(float64(d.ops)*scale))
		var per, allocs []float64
		for r := 0; r < benchRepeats; r++ {
			loop, err := d.setup(seed)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", d.timeMetric, err)
			}
			runtime.GC()
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			t0 := time.Now()
			n, err := loop(ops)
			dt := time.Since(t0)
			runtime.ReadMemStats(&m1)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", d.timeMetric, err)
			}
			per = append(per, float64(dt)/float64(d.unit)/float64(n))
			allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs)/float64(n))
		}
		unit := "ns"
		if d.unit == time.Microsecond {
			unit = "us"
		}
		out[d.timeMetric] = value{Unit: unit, Value: median(per)}
		out[d.allocMetric] = value{Unit: "count", Value: median(allocs)}
	}
	return out, nil
}

// stepUntil advances eng until done reports true.
func stepUntil(eng *sim.Engine, done func() bool) error {
	for !done() {
		if !eng.Step() {
			return fmt.Errorf("event queue drained early")
		}
	}
	return nil
}

// simBench keeps 64 events pending: each fired event schedules the
// next one up to 63 ps ahead (about one in 64 at the current instant,
// exercising the zero-delay lane).
func simBench(seed uint64) (func(int) (int, error), error) {
	eng := sim.NewEngine()
	rng := sim.NewRand(seed)
	var delays [256]sim.Time
	for i := range delays {
		delays[i] = sim.Time(rng.Intn(64))
	}
	fired := 0
	var fn sim.Handler
	fn = func() {
		fired++
		eng.Schedule(delays[fired&255], fn)
	}
	for i := 0; i < 64; i++ {
		eng.Schedule(delays[i], fn)
	}
	return func(ops int) (int, error) {
		for i := 0; i < ops; i++ {
			eng.Step()
		}
		return ops, nil
	}, nil
}

// vcKinds are the read and write packet kinds of each virtual channel;
// the microbenchmarks alternate them.
var vcKinds = [packet.NumVCs][2]packet.Kind{
	packet.VCRequest:  {packet.ReadReq, packet.WriteReq},
	packet.VCResponse: {packet.ReadResp, packet.WriteAck},
}

// refiller returns an onSpace callback that runs fill once at the
// current instant, however often space frees, the way a router's Kick
// schedules one sweep.
func refiller(eng *sim.Engine, fill func()) func(packet.VC) {
	pending := false
	run := func() {
		pending = false
		fill()
	}
	return func(packet.VC) {
		if !pending {
			pending = true
			eng.Schedule(0, run)
		}
	}
}

// testLink is an external link direction of the Table 2 system.
func testLink(sys *config.System) link.Config {
	return link.Config{
		BandwidthBps:  sys.LinkBandwidthBps(),
		SerDesLatency: sys.SerDesLatency,
		QueueDepth:    sys.LinkBufferPackets,
		Credits:       sys.LinkBufferPackets,
		CountHop:      true,
	}
}

// routerBench saturates four inputs of a router running augmented
// distance arbitration toward one output link whose sink returns each
// credit at once. Every credit an input returns refills it, so all four
// inputs contend on both virtual channels for the whole run.
func routerBench(seed uint64) (func(int) (int, error), error) {
	sys := config.Default()
	eng := sim.NewEngine()
	rng := sim.NewRand(seed)
	policy := arb.New(arb.DistanceAugmented, arb.Config{
		WriteDemotion: core.DefaultTuning().WriteDemotion,
		Bias: func(n packet.NodeID) int64 {
			if n%2 == 0 {
				return 3 // even sources play NVM cubes
			}
			return 0
		},
	})
	r := router.New(eng, 1, policy, core.DefaultTuning().SwitchBandwidthBps)
	cfg := testLink(&sys)
	var pool packet.Pool
	forwarded := 0
	out := link.New(eng, cfg, nil)
	out.SetDeliver(func(p *packet.Packet) {
		vc := packet.VCOf(p.Kind)
		pool.Put(p)
		forwarded++
		out.ReturnCredit(vc)
	})
	const inputs = 4
	deliver := make([]func(*packet.Packet), inputs)
	next := uint64(0)
	feed := func(i int, vc packet.VC) {
		next++
		p := pool.Get()
		*p = packet.Packet{ID: next, Kind: vcKinds[vc][next%2], Src: packet.NodeID(2 + rng.Intn(8)), Distance: 1 + rng.Intn(5)}
		deliver[i](p)
	}
	for i := 0; i < inputs; i++ {
		i := i
		in := link.NewBuffer(sys.LinkBufferPackets, func(vc packet.VC) { feed(i, vc) })
		deliver[i] = r.Deliver(r.AttachPort(in, link.New(eng, cfg, nil)))
	}
	outPort := r.AttachPort(link.NewBuffer(sys.LinkBufferPackets, nil), out)
	r.SetRoute(func(*packet.Packet) int { return outPort })
	for i := 0; i < inputs; i++ {
		for n := 0; n < sys.LinkBufferPackets; n++ {
			feed(i, packet.VCRequest)
			feed(i, packet.VCResponse)
		}
	}
	return func(ops int) (int, error) {
		start := forwarded
		err := stepUntil(eng, func() bool { return forwarded-start >= ops })
		return forwarded - start, err
	}, nil
}

// linkBench keeps one direction's output queues full on both virtual
// channels, feeding it the way a router does (a sweep scheduled when
// space frees), toward a sink that returns each credit at once.
func linkBench(seed uint64) (func(int) (int, error), error) {
	sys := config.Default()
	eng := sim.NewEngine()
	d := link.New(eng, testLink(&sys), nil)
	var pool packet.Pool
	delivered := 0
	d.SetDeliver(func(p *packet.Packet) {
		vc := packet.VCOf(p.Kind)
		pool.Put(p)
		delivered++
		d.ReturnCredit(vc)
	})
	next := seed
	fill := func() {
		for vc := packet.VC(0); vc < packet.NumVCs; vc++ {
			for d.CanAccept(vc) {
				next++
				p := pool.Get()
				*p = packet.Packet{ID: next, Kind: vcKinds[vc][next%2]}
				d.Send(p)
			}
		}
	}
	d.SetOnSpace(refiller(eng, fill))
	fill()
	return func(ops int) (int, error) {
		start := delivered
		err := stepUntil(eng, func() bool { return delivered-start >= ops })
		return delivered - start, err
	}, nil
}

// vaultBench saturates one DRAM and one PCM quadrant, each with its
// own request stream that is one third writes and reopens the bank's
// last row half the time, so about half the accesses are row hits.
func vaultBench(seed uint64) (func(int) (int, error), error) {
	sys := config.Default()
	tn := core.DefaultTuning()
	eng := sim.NewEngine()
	rng := sim.NewRand(seed)
	banks := sys.BanksPerQuadrant()
	intLink := link.Config{
		BandwidthBps: sys.LinkBandwidthBps() * int64(tn.InternalBandwidthX),
		QueueDepth:   tn.VaultQueueDepth,
		Credits:      tn.VaultQueueDepth,
	}
	var pool packet.Pool
	completed := 0
	for _, tech := range []config.MemTech{config.DRAM, config.NVM} {
		addrs := make([]uint64, 4096) // row<<16 | bank
		lastRow := make([]uint64, banks)
		for i := range addrs {
			b := rng.Intn(banks)
			if rng.Bool(0.5) {
				lastRow[b] = uint64(rng.Int63n(1 << 20))
			}
			addrs[i] = lastRow[b]<<16 | uint64(b)
		}
		meter := energy.NewMeter(sys.Energy)
		toQ, fromQ := link.New(eng, intLink, meter), link.New(eng, intLink, meter)
		inflight := tn.VaultMaxInflight
		if tech == config.NVM {
			inflight = tn.NVMMaxInflight
		}
		q := vault.New(eng, vault.Config{
			Tech: tech, Timing: sys.Timing(tech), ExtPorts: 1,
			Penalty: sys.WrongQuadrantPenalty, Banks: banks, MaxInflight: inflight,
			BankMap:    func(a uint64) (int, int64) { return int(a & 0xffff), int64(a >> 16) },
			ReturnDist: func(*packet.Packet) int { return 1 },
			Meter:      meter,
		})
		q.Attach(link.NewBuffer(tn.VaultQueueDepth, toQ.ReturnCredit), fromQ)
		toQ.SetDeliver(q.Deliver())
		fromQ.SetDeliver(func(p *packet.Packet) {
			pool.Put(p)
			completed++
			fromQ.ReturnCredit(packet.VCResponse)
		})
		next := 0
		fill := func() {
			for toQ.CanAccept(packet.VCRequest) {
				next++
				kind := packet.ReadReq
				if next%3 == 0 {
					kind = packet.WriteReq
				}
				p := pool.Get()
				*p = packet.Packet{ID: uint64(next), Kind: kind, Dst: 1, Addr: addrs[next%len(addrs)]}
				toQ.Send(p)
			}
		}
		toQ.SetOnSpace(refiller(eng, fill))
		fill()
	}
	return func(ops int) (int, error) {
		start := completed
		err := stepUntil(eng, func() bool { return completed-start >= ops })
		return completed - start, err
	}, nil
}

// hostBench runs a port that always has a transaction ready, so it
// sits at its window limit, over a link whose far end turns each
// request into its response (MakeResponse) and hands it straight back
// (Receive), returning the credit.
func hostBench(seed uint64) (func(int) (int, error), error) {
	sys := config.Default()
	tn := core.DefaultTuning()
	eng := sim.NewEngine()
	spec, err := traffic.ByName("KMEANS")
	if err != nil {
		return nil, err
	}
	spec.MeanGap = 0
	collector := stats.NewCollector(false)
	port := host.New(eng, host.Config{
		MaxOutstanding: sys.MaxOutstanding,
		HostLatency:    sys.HostLatency,
		Target:         1 << 62,
		ShortcutHi:     tn.ShortcutHi,
		ShortcutLo:     tn.ShortcutLo,
		ShortcutWindow: tn.ShortcutWindow,
		WavefrontSize:  tn.WavefrontSize,
	}, traffic.New(spec, sys.PortCapacity(), seed|1), host.Wiring{
		DestOf: func(a uint64) packet.NodeID { return packet.NodeID(1 + (a>>8)%4) },
		DistOf: func(dst packet.NodeID, _ topology.PathClass) int { return int(dst) },
	}, collector)
	out := link.New(eng, testLink(&sys), nil)
	out.SetDeliver(func(p *packet.Packet) {
		vc := packet.VCOf(p.Kind)
		p.ArrivedMem, p.DepartedMem = eng.Now(), eng.Now()
		p.MakeResponse(int(p.Dst))
		port.Receive(p)
		out.ReturnCredit(vc)
	})
	port.Attach(out)
	port.Kick()
	return func(ops int) (int, error) {
		start := collector.Completed()
		err := stepUntil(eng, func() bool { return collector.Completed()-start >= uint64(ops) })
		return int(collector.Completed() - start), err
	}, nil
}

// workloadSink keeps the generated transactions observable so the
// compiler cannot drop the generator calls.
var workloadSink uint64

func workloadBench(seed uint64) (func(int) (int, error), error) {
	spec, err := traffic.ByName("KMEANS")
	if err != nil {
		return nil, err
	}
	sys := config.Default()
	gen := traffic.New(spec, sys.PortCapacity(), seed|1)
	return func(ops int) (int, error) {
		for i := 0; i < ops; i++ {
			workloadSink ^= gen.Next().Addr
		}
		return ops, nil
	}, nil
}

// packetBench takes 64 packets from a pool and returns them, the
// depth of one port's in-flight window.
func packetBench(uint64) (func(int) (int, error), error) {
	var pool packet.Pool
	var held [64]*packet.Packet
	return func(ops int) (int, error) {
		done := 0
		for done < ops {
			for i := range held {
				held[i] = pool.Get()
				held[i].ID = uint64(done + i)
			}
			for _, p := range held {
				pool.Put(p)
			}
			done += len(held)
		}
		return done, nil
	}, nil
}

// decodeBench decodes the skip-list scenario document of the chaos
// workload.
func decodeBench(seed uint64) (func(int) (int, error), error) {
	spec, err := memnet.ExportScenario(chaosBase(seed, chaosTxns), "skiplist-nvm")
	if err != nil {
		return nil, err
	}
	doc, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	return func(ops int) (int, error) {
		for i := 0; i < ops; i++ {
			if _, err := memnet.DecodeScenario(doc); err != nil {
				return i, err
			}
		}
		return ops, nil
	}, nil
}

// topologyBench builds the tree, the skip list and the MetaCube
// graphs of a 100% DRAM port; one operation builds all three.
func topologyBench(uint64) (func(int) (int, error), error) {
	sys := config.Default()
	techs, err := core.TechOrder(&sys)
	if err != nil {
		return nil, err
	}
	return func(ops int) (int, error) {
		for i := 0; i < ops; i++ {
			for _, k := range []topology.Kind{topology.Tree, topology.SkipList, topology.MetaCube} {
				if _, err := topology.Build(k, techs); err != nil {
					return i, err
				}
			}
		}
		return ops, nil
	}, nil
}

// coreBuildBench builds the 50% NVM-first skip list the figures and
// the chaos workload simulate.
func coreBuildBench(seed uint64) (func(int) (int, error), error) {
	sys := config.Default()
	sys.DRAMFraction, sys.Placement = 0.5, config.NVMFirst
	spec, err := traffic.ByName("BACKPROP")
	if err != nil {
		return nil, err
	}
	p := core.Params{Sys: sys, Topo: topology.SkipList, Arb: arb.DistanceAugmented,
		Workload: spec, Transactions: figsTxns, Seed: seed}
	return func(ops int) (int, error) {
		for i := 0; i < ops; i++ {
			if _, err := core.Build(p); err != nil {
				return i, err
			}
		}
		return ops, nil
	}, nil
}
