package main

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"memnet"
	"memnet/internal/config"
	"memnet/internal/scenario"
	"memnet/internal/topology"
)

// TestMachineFlagConflict pins the -shards flag validation: every
// per-port side-artifact flag is rejected for machine runs with a
// message naming the offending flag, while plain and manifest-writing
// machine runs pass.
func TestMachineFlagConflict(t *testing.T) {
	cases := []struct {
		name                              string
		shards, traceN                    int
		spansOut, perfOut, series, record string
		sampleIv                          time.Duration
		wantFlag                          string
	}{
		{name: "no-shards-anything-goes", shards: 0, spansOut: "s.ndjson", perfOut: "p.json", traceN: 8},
		{name: "machine-plain", shards: 4},
		{name: "machine-spans", shards: 2, spansOut: "s.ndjson", wantFlag: "-spans-out"},
		{name: "machine-perfetto", shards: 2, perfOut: "p.json", wantFlag: "-perfetto-out"},
		{name: "machine-series", shards: 2, series: "s.csv", wantFlag: "-series-out"},
		{name: "machine-sample-interval", shards: 2, sampleIv: time.Microsecond, wantFlag: "-sample-interval"},
		{name: "machine-record", shards: 2, record: "t.trace", wantFlag: "-record-trace"},
		{name: "machine-trace", shards: 2, traceN: 16, wantFlag: "-trace"},
		// Precedence: spans is reported first when several conflict.
		{name: "machine-multi", shards: 2, spansOut: "s.ndjson", traceN: 16, wantFlag: "-spans-out"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := machineFlagConflict(tc.shards, tc.spansOut, tc.perfOut, tc.series,
				tc.record, tc.traceN, tc.sampleIv)
			if tc.wantFlag == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("want error naming %s, got nil", tc.wantFlag)
			}
			if !strings.Contains(err.Error(), tc.wantFlag) {
				t.Fatalf("error %q does not name %s", err, tc.wantFlag)
			}
		})
	}
}

// TestSpanConfig pins which span recorder each flag combination arms:
// -trace takes the first N transactions at stride 1 unless -span-sample
// is set, -spans-out/-span-sample default to stride 32 with no cap, and
// -perfetto-out alone records every 32nd transaction up to its cap.
func TestSpanConfig(t *testing.T) {
	cases := []struct {
		name              string
		traceN            int
		stride            uint64
		spansOut, perfOut bool
		want              *memnet.SpanConfig
	}{
		{name: "none"},
		{name: "trace", traceN: 4, want: &memnet.SpanConfig{SampleStride: 1, MaxSpans: 4}},
		{name: "trace-sampled", traceN: 4, stride: 8, want: &memnet.SpanConfig{SampleStride: 8, MaxSpans: 4}},
		{name: "trace-and-files", traceN: 4, spansOut: true, perfOut: true, want: &memnet.SpanConfig{SampleStride: 1, MaxSpans: 4}},
		{name: "spans-out", spansOut: true, want: &memnet.SpanConfig{SampleStride: 32}},
		{name: "span-sample", stride: 5, want: &memnet.SpanConfig{SampleStride: 5}},
		{name: "spans-out-and-perfetto", spansOut: true, perfOut: true, want: &memnet.SpanConfig{SampleStride: 32}},
		{name: "perfetto", perfOut: true, want: &memnet.SpanConfig{SampleStride: 32, MaxSpans: perfettoMaxSpans}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := spanConfig(tc.traceN, tc.stride, tc.spansOut, tc.perfOut)
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("spanConfig = %+v, want %+v", got, tc.want)
			}
		})
	}
}

// TestFailLinkScenario pins -fail-link as a scenario edit: the exported
// topology loses exactly the named link, an index past the last link is
// an error naming the link count, and -scenario is a conflict.
func TestFailLinkScenario(t *testing.T) {
	cfg := memnet.DefaultConfig()
	cfg.Topology = memnet.Ring
	full, err := memnet.ExportScenario(cfg, "")
	if err != nil {
		t.Fatal(err)
	}
	s, err := failLinkScenario(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := append(full.Links[:2:2], full.Links[3:]...)
	if !reflect.DeepEqual(s.Links, want) {
		t.Fatalf("links after cut:\n got  %+v\n want %+v", s.Links, want)
	}

	n := len(full.Links)
	_, err = failLinkScenario(cfg, 99)
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("has %d links", n)) {
		t.Fatalf("-fail-link 99 on a %d-link ring: got %v, want an error naming the link count", n, err)
	}

	cfg.Scenario = full
	if _, err := failLinkScenario(cfg, 2); err == nil || !strings.Contains(err.Error(), "-scenario") {
		t.Fatalf("-fail-link with -scenario: got %v, want a conflict error", err)
	}

	// A disconnecting cut names the flag and the link it deleted.
	chain := memnet.DefaultConfig()
	chain.Topology = memnet.Chain
	_, err = failLinkScenario(chain, 3)
	wantErr := "-fail-link 3 (links[3] c3-c4): scenario: topology: node 4 unreachable from host"
	if err == nil || err.Error() != wantErr {
		t.Fatalf("-fail-link 3 on a chain: got %v, want %q", err, wantErr)
	}
}

// TestTopologyUsageCurrent pins the -topology help text to the kind
// registry that parses the flag.
func TestTopologyUsageCurrent(t *testing.T) {
	if want := strings.Join(topology.KindNames(), " | "); topoUsage != want {
		t.Errorf("-topology usage %q is stale; want %q", topoUsage, want)
	}
}

// TestPlacementAndArbFlags pins the values -placement and -arb accept:
// exactly the ones their help text lists. Anything else, a prefix or
// an old alias included, is an error that names the value, so a typo
// cannot run the other placement or policy.
func TestPlacementAndArbFlags(t *testing.T) {
	for in, want := range map[string]memnet.Placement{"last": memnet.NVMLast, "first": memnet.NVMFirst} {
		if got, err := config.ParsePlacement(in); err != nil || got != want {
			t.Errorf("-placement %s = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, bad := range []string{"banana", "fast", "f", "FIRST", "Last", ""} {
		if got, err := config.ParsePlacement(bad); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%q (last | first)", bad)) {
			t.Errorf("-placement %q = %v, %v; want an error naming it", bad, got, err)
		}
	}
	for in, want := range map[string]memnet.Arbitration{
		"rr": memnet.RoundRobin, "distance": memnet.Distance, "augmented": memnet.DistanceAugmented,
	} {
		if got, err := scenario.ParseArb(in); err != nil || got != want {
			t.Errorf("-arb %s = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, bad := range []string{"round-robin", "roundrobin", "dist", "aug", "distance-augmented", "RR"} {
		if got, err := scenario.ParseArb(bad); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%q", bad)) {
			t.Errorf("-arb %q = %v, %v; want an error naming it", bad, got, err)
		}
	}
}
