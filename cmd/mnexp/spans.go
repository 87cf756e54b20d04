package main

import (
	"bytes"
	"os"
	"slices"
	"sync"

	"memnet/internal/campaign"
	"memnet/internal/core"
	"memnet/internal/span"
)

// spanCollector is a SimFunc backend that arms causal span tracing on
// every simulation it executes and retains each run's NDJSON block,
// keyed by the run's cache address (campaign.FingerprintOf), so
// runs that differ in any input — arbitration, faults, any system
// field — keep a block each. Warm calls the backend from worker
// goroutines, so the block map is mutex-guarded; the final file is
// written sorted by address, so its bytes do not depend on worker count
// or completion order.
type spanCollector struct {
	stride uint64

	mu     sync.Mutex
	blocks map[campaign.Fingerprint][]byte
}

func newSpanCollector(stride uint64) *spanCollector {
	return &spanCollector{stride: stride, blocks: make(map[campaign.Fingerprint][]byte)}
}

// sim is the experiments.SimFunc: resolve the run with spans armed
// (Spans is not in its address), build and run it, capture its span
// block, return the Results untouched (spans leave them bit-identical).
func (sc *spanCollector) sim(p core.Params) (core.Results, error) {
	p.Spans = &span.Config{SampleStride: sc.stride}
	r, err := core.Resolve(p)
	if err != nil {
		return core.Results{}, err
	}
	key, err := campaign.FingerprintOf(r)
	if err != nil {
		return core.Results{}, err
	}
	inst, err := r.Build()
	if err != nil {
		return core.Results{}, err
	}
	res, err := inst.Run()
	if err != nil {
		return res, err
	}
	var buf bytes.Buffer
	if err := inst.WriteSpans(&buf); err != nil {
		return res, err
	}
	sc.mu.Lock()
	sc.blocks[key] = buf.Bytes()
	sc.mu.Unlock()
	return res, nil
}

// writeFile concatenates every retained block in address order.
// span.Read accepts the multi-block result (each block opens with its
// own header line).
func (sc *spanCollector) writeFile(path string) error {
	sc.mu.Lock()
	keys := make([]campaign.Fingerprint, 0, len(sc.blocks))
	for k := range sc.blocks {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	var out bytes.Buffer
	for _, k := range keys {
		out.Write(sc.blocks[k])
	}
	sc.mu.Unlock()
	return os.WriteFile(path, out.Bytes(), 0o644)
}
