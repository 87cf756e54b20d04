package main

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"memnet"
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
