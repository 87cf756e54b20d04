// Command mnsim runs a single memory-network simulation and reports
// execution time, the latency decomposition, and the energy breakdown.
//
// Examples:
//
//	mnsim -topology tree -workload KMEANS
//	mnsim -topology skiplist -dram-pct 50 -placement last -arb augmented
//	mnsim -topology metacube -ports 4 -txns 50000 -v
//	mnsim -scenario examples/scenario/twopod.json
//	mntopo -topology skiplist -export | mnsim -scenario -
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"memnet"
	"memnet/internal/config"
	"memnet/internal/obs"
	"memnet/internal/prof"
	"memnet/internal/scenario"
	"memnet/internal/span"
	"memnet/internal/topology"
)

// topoUsage is the -topology help text. It must stay a string constant
// (cmd/mndocs renders flag tables from the AST) and must track
// topology.KindNames exactly; TestTopologyUsageCurrent pins it.
const topoUsage = "chain | ring | tree | skiplist | metacube | mesh"

func main() {
	var (
		topoFlag  = flag.String("topology", "tree", topoUsage)
		scenFlag  = flag.String("scenario", "", "run a declarative scenario file instead of -topology ('-' = stdin; see SCENARIOS.md)")
		dramPct   = flag.Float64("dram-pct", 100, "percent of capacity from DRAM (0-100)")
		placeFlag = flag.String("placement", "last", "NVM placement: last (-L) | first (-F)")
		arbFlag   = flag.String("arb", "rr", "arbitration: rr | distance | augmented")
		wlFlag    = flag.String("workload", "KMEANS", "workload name (or 'list')")
		txns      = flag.Uint64("txns", 20000, "transactions to complete")
		seed      = flag.Uint64("seed", 1, "workload seed")
		ports     = flag.Int("ports", 8, "host memory ports")
		shards    = flag.Int("shards", 0, "simulate the whole machine (all ports), running ports on N worker goroutines; results are identical for every N (0 = classic single-port run)")
		capTB     = flag.Int("capacity-tb", 2, "total memory capacity in TB")
		verbose   = flag.Bool("v", false, "print per-component detail")
		failLink  = flag.Int("fail-link", -1, "run without the topology edge with this index: the topology exported as a scenario with that link deleted (RAS experiment)")
		faultSeed = flag.Uint64("fault-seed", 0, "seed for the fault-injection RNG streams (default 1)")
		linkBER   = flag.Float64("link-ber", 0, "per-bit link error rate; corrupted packets retry (e.g. 1e-6)")
		maxRetry  = flag.Int("max-retries", 0, "drop a packet after this many retries (0 = retry forever)")
		killCube  = flag.String("kill-cube", "", "kill cubes mid-run: N@T[!] (…!: router too), e.g. 4@1us,5@2us!")
		killLink  = flag.String("kill-link-at", "", "sever links mid-run: EDGE@T, e.g. 2@1us")
		failLanes = flag.String("fail-lanes-at", "", "halve link bandwidth mid-run: EDGE@T, e.g. 0@500ns")
		repCube   = flag.String("repair-cube-at", "", "repair killed cubes mid-run: N@T, e.g. 4@3us")
		repLink   = flag.String("repair-link-at", "", "repair severed links mid-run (retrains, then routes back): EDGE@T, e.g. 2@3us")
		flapLanes = flag.String("flap-lanes", "", "transient lane flaps (bandwidth halves, then rebinds): EDGE@DOWN:UP, e.g. 0@500ns:2us")
		retrainW  = flag.Duration("retrain-window", 0, "link retraining window between repair and traffic (default 200ns)")
		recordTo  = flag.String("record-trace", "", "write the generated transaction trace to this file")
		replayFrm = flag.String("replay-trace", "", "drive the run from a recorded trace file")
		traceN    = flag.Int("trace", 0, "print the lifecycle of the first N transactions")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf   = flag.String("memprofile", "", "write a heap profile to this file on exit")

		reportJSON = flag.Bool("report-json", false, "print the run record (per-node report, results, config) as manifest-schema JSON")
		metricsOut = flag.String("metrics-out", "", "write the run manifest JSON (config, seed, metrics, fairness) to this file; enables telemetry (with -shards: the machine manifest with per-port load)")
		sampleIv   = flag.Duration("sample-interval", 0, "telemetry gauge-sampling interval in sim time (default 10us); enables telemetry")
		perfOut    = flag.String("perfetto-out", "", "write sampled counters and causal spans as Perfetto/Chrome trace JSON (spans of every 32nd transaction, at most 64, unless a span flag is set); enables telemetry")
		seriesOut  = flag.String("series-out", "", "write the sampled gauge time series as CSV; enables telemetry")
		spansOut   = flag.String("spans-out", "", "write sampled causal spans as NDJSON (memnet/spans/v1) to this file; analyze with mntrace")
		spanSample = flag.Uint64("span-sample", 0, "span sampling stride: record every Nth transaction (default 32 when -spans-out is set)")
	)
	flag.Parse()

	check(machineFlagConflict(*shards, *spansOut, *perfOut, *seriesOut, *recordTo, *traceN, *sampleIv))

	// With -report-json the manifest owns stdout; the human summary
	// moves to stderr so the JSON stays pipeable.
	status := io.Writer(os.Stdout)
	if *reportJSON {
		status = os.Stderr
	}

	stopProf, err := prof.Start(*cpuProf, *memProf)
	check(err)
	defer func() { check(stopProf()) }()

	if *wlFlag == "list" {
		for _, s := range memnet.Workloads() {
			fmt.Printf("%-10s reads=%.0f%%  mean gap=%v\n",
				s.Name, s.ReadFraction*100, s.MeanGap)
		}
		return
	}

	// Explicitly-set flags win over a scenario's embedded blocks.
	explicit := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })

	cfg := memnet.DefaultConfig()
	cfg.Topology, err = topology.ParseKind(*topoFlag)
	check(err)
	if *scenFlag != "" {
		if explicit["topology"] {
			check(fmt.Errorf("-scenario and -topology conflict: the scenario declares the graph"))
		}
		var s *memnet.Scenario
		if *scenFlag == "-" {
			s, err = memnet.LoadScenario(os.Stdin)
		} else {
			s, err = memnet.LoadScenarioFile(*scenFlag)
		}
		check(err)
		cfg.Scenario = s
		// Let the scenario's workload block drive unless -workload was
		// given; fault flags likewise override the fault block (a nil
		// cfg.Fault defers to the scenario inside memnet.Run).
		if !explicit["workload"] && s.Workload != nil {
			*wlFlag = ""
		}
	}
	cfg.Arbitration, err = scenario.ParseArb(*arbFlag)
	check(err)
	cfg.DRAMFraction = *dramPct / 100
	cfg.Placement, err = config.ParsePlacement(*placeFlag)
	check(err)
	cfg.Workload = *wlFlag
	cfg.Transactions = *txns
	cfg.Seed = *seed

	sys := memnet.DefaultSystem()
	sys.Ports = *ports
	sys.TotalCapacity = uint64(*capTB) << 40
	cfg.System = &sys
	if *failLink >= 0 {
		cfg.Scenario, err = failLinkScenario(cfg, *failLink)
		check(err)
	}
	cfg.Fault, err = parseFault(*faultSeed, *linkBER, *maxRetry, *killCube, *killLink, *failLanes,
		*repCube, *repLink, *flapLanes, *retrainW)
	check(err)
	if *recordTo != "" {
		cfg.Record = true
	}
	if *metricsOut != "" || *sampleIv > 0 || *perfOut != "" || *seriesOut != "" {
		cfg.Telemetry = &memnet.TelemetryConfig{
			Enabled:        true,
			SampleInterval: memnet.Time(sampleIv.Nanoseconds()) * memnet.Nanosecond,
		}
	}
	cfg.Spans = spanConfig(*traceN, *spanSample, *spansOut != "", *perfOut != "")
	if *replayFrm != "" {
		f, err := os.Open(*replayFrm)
		check(err)
		trace, err := memnet.ReadTraceFrom(f)
		f.Close()
		check(err)
		cfg.ReplayTrace = trace
	}

	if *shards > 0 {
		cfg.Shards = *shards
		// The per-port sampler has no cross-port merge; the machine
		// manifest below carries the per-port load record instead.
		cfg.Telemetry = nil
		mr, err := memnet.RunMachine(cfg)
		check(err)
		// The worker count is deliberately absent from the report: output
		// must be byte-identical for every -shards value (CI diffs it).
		fmt.Fprintf(status, "machine       %d ports\n", len(mr.PerPort))
		fmt.Fprintf(status, "finish time   %v  (slowest port; %d transactions machine-wide)\n",
			mr.FinishTime, mr.Transactions)
		fmt.Fprintf(status, "mean latency  %v  (transaction-weighted across ports)\n", mr.MeanLatency)
		fmt.Fprintf(status, "traffic       %d reads / %d writes, %.2f mean hops\n",
			mr.Reads, mr.Writes, mr.MeanHops)
		fmt.Fprintf(status, "energy        %.1f uJ network | %.1f uJ read | %.1f uJ write\n",
			mr.Energy.NetworkPJ/1e6, mr.Energy.ReadPJ/1e6, mr.Energy.WritePJ/1e6)
		fmt.Fprintf(status, "fairness      %.4f (Jain over per-port finish times)\n", mr.Fairness)
		if *verbose {
			fmt.Fprintf(status, "sim events    %d\n", mr.Events)
			for i, r := range mr.PerPort {
				fmt.Fprintf(status, "port %-2d       finish %v  latency %v  txns %d  events %d\n",
					i, r.FinishTime, r.MeanLatency, r.Transactions, r.Events)
			}
		}
		if *metricsOut != "" {
			m, err := memnet.MachineManifest(cfg, mr)
			check(err)
			f, err := os.Create(*metricsOut)
			check(err)
			check(m.Encode(f))
			check(f.Close())
			fmt.Fprintf(status, "manifest      wrote %s\n", *metricsOut)
		}
		return
	}

	in, err := memnet.Build(cfg)
	check(err)
	res, err := in.Run()
	check(err)

	fmt.Fprintf(status, "config        %s  arb=%s  workload=%s\n", res.Label, *arbFlag, res.Workload)
	fmt.Fprintf(status, "finish time   %v  (%d transactions)\n", res.FinishTime, res.Transactions)
	fmt.Fprintf(status, "mean latency  %v  (to-mem %v | in-mem %v | from-mem %v)\n",
		res.MeanLatency, res.Breakdown.ToMem, res.Breakdown.InMem, res.Breakdown.FromMem)
	fmt.Fprintf(status, "traffic       %d reads / %d writes, %.2f mean hops\n",
		res.Reads, res.Writes, res.MeanHops)
	fmt.Fprintf(status, "energy        %.1f uJ network | %.1f uJ read | %.1f uJ write\n",
		res.Energy.NetworkPJ/1e6, res.Energy.ReadPJ/1e6, res.Energy.WritePJ/1e6)
	if f := res.Fault; f.Any() {
		fmt.Fprintf(status, "fault         crc=%d retries=%d dropped=%d rerouted=%d bounced=%d rehomed=%d\n",
			f.CRCErrors, f.Retries, f.Dropped, f.Rerouted, f.Bounced, f.Rehomed)
		fmt.Fprintf(status, "              lane-fails=%d links-killed=%d cubes-killed=%d\n",
			f.LaneFails, f.LinksKilled, f.CubesKilled)
		if f.LinksRepaired+f.CubesRepaired+f.LaneRepairs > 0 {
			fmt.Fprintf(status, "              repaired links=%d cubes=%d lanes=%d, healed traffic %.2f Mbit\n",
				f.LinksRepaired, f.CubesRepaired, f.LaneRepairs, float64(f.HealedBits)/1e6)
		}
	}
	if *recordTo != "" {
		f, err := os.Create(*recordTo)
		check(err)
		check(memnet.WriteTraceTo(f, in.Recorder.Trace()))
		check(f.Close())
		fmt.Fprintf(status, "trace         wrote %d transactions to %s\n",
			len(in.Recorder.Trace()), *recordTo)
	}
	if *traceN > 0 {
		fmt.Fprintf(status, "lifecycle     %d transactions, in completion order\n", len(in.Spans.Spans()))
		span.Narrate(status, in.Spans.Spans())
	}
	var sampler *obs.Sampler
	if in.Telemetry != nil {
		sampler = in.Telemetry.Sampler
	}
	if *metricsOut != "" {
		f, err := os.Create(*metricsOut)
		check(err)
		check(in.Manifest(res).Encode(f))
		check(f.Close())
		fmt.Fprintf(status, "manifest      wrote %s\n", *metricsOut)
	}
	if *seriesOut != "" {
		f, err := os.Create(*seriesOut)
		check(err)
		check(sampler.WriteCSV(f))
		check(f.Close())
		fmt.Fprintf(status, "series        wrote %d samples to %s\n", sampler.Samples(), *seriesOut)
	}
	if *spansOut != "" {
		f, err := os.Create(*spansOut)
		check(err)
		check(in.WriteSpans(f))
		check(f.Close())
		fmt.Fprintf(status, "spans         wrote %d spans to %s\n", len(in.Spans.Spans()), *spansOut)
	}
	if *perfOut != "" {
		f, err := os.Create(*perfOut)
		check(err)
		check(memnet.WritePerfetto(f, sampler, in.Spans.Spans()))
		check(f.Close())
		fmt.Fprintf(status, "perfetto      wrote %s (open in https://ui.perfetto.dev)\n", *perfOut)
	}
	if *reportJSON {
		check(in.Manifest(res).Encode(os.Stdout))
	}
	if *verbose {
		fmt.Fprintf(status, "sim events    %d\n", res.Events)
		toF, inF, fromF := res.Breakdown.Fractions()
		fmt.Fprintf(status, "latency split %.0f%% to-mem / %.0f%% in-mem / %.0f%% from-mem\n",
			toF*100, inF*100, fromF*100)
		fmt.Fprintf(status, "\nper-node report (port 0's network):\n%s", in.ReportText())
	}
}

// perfettoMaxSpans caps the spans -perfetto-out records when no span
// flag is set. A skip-list span exports about 8 KB of slices and flow
// arrows, so a long run's span tracks stay near 0.5 MB.
const perfettoMaxSpans = 64

// spanConfig arms the span recorder for the span flags. -trace N
// records the first N transactions (every transaction unless
// -span-sample sets a stride); -spans-out and -span-sample record every
// 32nd transaction by default; -perfetto-out alone records every 32nd
// transaction, at most perfettoMaxSpans of them. It returns nil when no
// flag needs spans.
func spanConfig(traceN int, stride uint64, spansOut, perfOut bool) *memnet.SpanConfig {
	c := &memnet.SpanConfig{SampleStride: stride}
	switch {
	case traceN > 0:
		c.MaxSpans = traceN
		if stride == 0 {
			c.SampleStride = 1
		}
	case spansOut || stride > 0:
		if stride == 0 {
			c.SampleStride = 32
		}
	case perfOut:
		c.SampleStride, c.MaxSpans = 32, perfettoMaxSpans
	default:
		return nil
	}
	return c
}

// machineFlagConflict rejects per-port side-artifact flags combined
// with -shards (a whole-machine run), mirroring core.RunMachine's own
// rejection of span, record and telemetry parameters: spans (and
// -trace, which prints them), Perfetto traces, sampled series, and
// recorded traces are all single-network artifacts with no defined cross-port merge, so the
// combination fails fast with a pointed message instead of surfacing a
// core error after configuration.
func machineFlagConflict(shards int, spansOut, perfOut, seriesOut, recordTo string,
	traceN int, sampleIv time.Duration) error {
	if shards <= 0 {
		return nil
	}
	conflict := ""
	switch {
	case spansOut != "":
		conflict = "-spans-out"
	case perfOut != "":
		conflict = "-perfetto-out"
	case seriesOut != "":
		conflict = "-series-out"
	case sampleIv > 0:
		conflict = "-sample-interval"
	case recordTo != "":
		conflict = "-record-trace"
	case traceN > 0:
		conflict = "-trace"
	default:
		return nil
	}
	return fmt.Errorf("%s needs a single-port run: machine runs (-shards > 0) have no cross-port merge for per-port artifacts; drop -shards or %s", conflict, conflict)
}

// failLinkScenario expresses -fail-link n as a scenario edit: the
// configuration's built-in topology exported as a scenario (link order
// is edge order) with link n deleted. A cut that disconnects the
// network is an error naming the cut link. A -scenario run declares its
// own links, so the combination is a conflict.
func failLinkScenario(cfg memnet.Config, n int) (*memnet.Scenario, error) {
	if cfg.Scenario != nil {
		return nil, fmt.Errorf("-scenario and -fail-link conflict: delete the link from the scenario instead")
	}
	s, err := memnet.ExportScenario(cfg, "")
	if err != nil {
		return nil, err
	}
	if n < 0 || n >= len(s.Links) {
		return nil, fmt.Errorf("-fail-link %d: %s has %d links (0-%d)", n, s.Name, len(s.Links), len(s.Links)-1)
	}
	cut := s.Links[n]
	s.Links = append(s.Links[:n], s.Links[n+1:]...)
	if _, err := topology.BuildScenario(s); err != nil {
		return nil, fmt.Errorf("-fail-link %d (links[%d] %s-%s): %w", n, n, cut.A, cut.B, err)
	}
	return s, nil
}

// parseFault assembles the fault configuration from the CLI knobs, or
// returns nil when none is set.
func parseFault(seed uint64, ber float64, maxRetries int, cubes, links, lanes string,
	repCubes, repLinks, flaps string, retrain time.Duration) (*memnet.FaultConfig, error) {
	fc := &memnet.FaultConfig{
		Seed: seed, LinkBER: ber, MaxRetries: maxRetries,
		RetrainWindow: memnet.Time(retrain.Nanoseconds()) * memnet.Nanosecond,
	}
	for _, spec := range splitSpecs(cubes) {
		full := strings.HasSuffix(spec, "!")
		n, at, err := parseAt(strings.TrimSuffix(spec, "!"))
		if err != nil {
			return nil, fmt.Errorf("-kill-cube %q: %w", spec, err)
		}
		fc.KillCubes = append(fc.KillCubes, memnet.CubeKill{Node: memnet.NodeID(n), At: at, Full: full})
	}
	for _, spec := range splitSpecs(links) {
		e, at, err := parseAt(spec)
		if err != nil {
			return nil, fmt.Errorf("-kill-link-at %q: %w", spec, err)
		}
		fc.KillLinks = append(fc.KillLinks, memnet.LinkKill{Edge: e, At: at})
	}
	for _, spec := range splitSpecs(lanes) {
		e, at, err := parseAt(spec)
		if err != nil {
			return nil, fmt.Errorf("-fail-lanes-at %q: %w", spec, err)
		}
		fc.LaneFails = append(fc.LaneFails, memnet.LaneFail{Edge: e, At: at})
	}
	for _, spec := range splitSpecs(repCubes) {
		n, at, err := parseAt(spec)
		if err != nil {
			return nil, fmt.Errorf("-repair-cube-at %q: %w", spec, err)
		}
		fc.RepairCubes = append(fc.RepairCubes, memnet.CubeRepair{Node: memnet.NodeID(n), At: at})
	}
	for _, spec := range splitSpecs(repLinks) {
		e, at, err := parseAt(spec)
		if err != nil {
			return nil, fmt.Errorf("-repair-link-at %q: %w", spec, err)
		}
		fc.RepairLinks = append(fc.RepairLinks, memnet.LinkRepair{Edge: e, At: at})
	}
	for _, spec := range splitSpecs(flaps) {
		e, down, up, err := parseWindow(spec)
		if err != nil {
			return nil, fmt.Errorf("-flap-lanes %q: %w", spec, err)
		}
		fc.LaneFlaps = append(fc.LaneFlaps, memnet.LaneFlap{Edge: e, Down: down, Up: up})
	}
	if !fc.Enabled() && seed == 0 {
		return nil, nil
	}
	return fc, nil
}

func splitSpecs(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// parseAt parses an "INDEX@DURATION" spec, e.g. "4@1us" or "2@1.5ms".
func parseAt(spec string) (int, memnet.Time, error) {
	idx, dur, ok := strings.Cut(spec, "@")
	if !ok {
		return 0, 0, fmt.Errorf("want INDEX@TIME (e.g. 4@1us)")
	}
	n, err := strconv.Atoi(idx)
	if err != nil {
		return 0, 0, err
	}
	d, err := time.ParseDuration(dur)
	if err != nil {
		return 0, 0, err
	}
	return n, memnet.Time(d.Nanoseconds()) * memnet.Nanosecond, nil
}

// parseWindow parses an "INDEX@DOWN:UP" flap spec, e.g. "0@500ns:2us".
func parseWindow(spec string) (int, memnet.Time, memnet.Time, error) {
	idx, at, ok := strings.Cut(spec, "@")
	if !ok {
		return 0, 0, 0, fmt.Errorf("want EDGE@DOWN:UP (e.g. 0@500ns:2us)")
	}
	n, err := strconv.Atoi(idx)
	if err != nil {
		return 0, 0, 0, err
	}
	downStr, upStr, ok := strings.Cut(at, ":")
	if !ok {
		return 0, 0, 0, fmt.Errorf("want EDGE@DOWN:UP (e.g. 0@500ns:2us)")
	}
	down, err := time.ParseDuration(downStr)
	if err != nil {
		return 0, 0, 0, err
	}
	up, err := time.ParseDuration(upStr)
	if err != nil {
		return 0, 0, 0, err
	}
	return n, memnet.Time(down.Nanoseconds()) * memnet.Nanosecond,
		memnet.Time(up.Nanoseconds()) * memnet.Nanosecond, nil
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "mnsim:", err)
		os.Exit(1)
	}
}
