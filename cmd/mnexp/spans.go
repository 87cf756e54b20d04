package main

import (
	"bytes"
	"fmt"
	"os"
	"sort"
	"sync"

	"memnet/internal/core"
	"memnet/internal/span"
)

// spanCollector is a SimFunc backend that arms causal span tracing on
// every simulation it executes and retains each run's NDJSON block,
// keyed by the run's identifying parameters. Warm calls the backend
// from worker goroutines, so the block map is mutex-guarded; the final
// file is written sorted by key, so its bytes do not depend on worker
// count or completion order.
type spanCollector struct {
	stride uint64

	mu     sync.Mutex
	blocks map[string][]byte
}

func newSpanCollector(stride uint64) *spanCollector {
	return &spanCollector{stride: stride, blocks: make(map[string][]byte)}
}

// sim is the experiments.SimFunc: run with spans armed, capture the
// run's span block, return the Results untouched (span tracing leaves
// them bit-identical).
func (sc *spanCollector) sim(p core.Params) (core.Results, error) {
	p.Spans = &span.Config{SampleStride: sc.stride}
	inst, err := core.Build(p)
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
	key := fmt.Sprintf("%s|%s|ports%d|cap%d|seed%d|txns%d",
		res.Label, p.Workload.Name, p.Sys.Ports, p.Sys.TotalCapacity, p.Seed, p.Transactions)
	sc.mu.Lock()
	sc.blocks[key] = buf.Bytes()
	sc.mu.Unlock()
	return res, nil
}

// writeFile concatenates every retained block in sorted key order.
// span.Read accepts the multi-block result (each block opens with its
// own header line).
func (sc *spanCollector) writeFile(path string) error {
	sc.mu.Lock()
	keys := make([]string, 0, len(sc.blocks))
	for k := range sc.blocks {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var out bytes.Buffer
	for _, k := range keys {
		out.Write(sc.blocks[k])
	}
	sc.mu.Unlock()
	return os.WriteFile(path, out.Bytes(), 0o644)
}
