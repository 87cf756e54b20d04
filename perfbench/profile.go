package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strings"
	"sync"
	"time"
)

// spanRec is one benchmark-side span: the interval of one public call
// the traced pass made. Times are nanoseconds since the pass started;
// Self is the part of the interval no child span covers.
type spanRec struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	SelfNs  int64  `json:"self_ns"`
}

// spanLog keeps a traced pass's spans in memory until the pass ends. A
// nil log records nothing and open returns 0, so untraced passes pay
// only the nil check. Sim-hook spans open on worker goroutines, hence
// the lock.
type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	spans []spanRec
}

func (l *spanLog) open(name string, parent int) int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, spanRec{
		ID: len(l.spans) + 1, Parent: parent, Name: name,
		StartNs: time.Since(l.t0).Nanoseconds(),
	})
	return len(l.spans)
}

func (l *spanLog) close(id int) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.spans[id-1].EndNs = time.Since(l.t0).Nanoseconds()
	l.mu.Unlock()
}

// selfTimes fills SelfNs: each span's duration minus the union of its
// children's intervals (children on parallel workers may overlap).
func selfTimes(spans []spanRec) {
	kids := map[int][]spanRec{}
	for _, s := range spans {
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	for i := range spans {
		s := &spans[i]
		ch := kids[s.ID]
		sort.Slice(ch, func(a, b int) bool { return ch[a].StartNs < ch[b].StartNs })
		covered, reach := int64(0), s.StartNs
		for _, c := range ch {
			lo, hi := max(c.StartNs, reach), min(c.EndNs, s.EndNs)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		s.SelfNs = s.EndNs - s.StartNs - covered
	}
}

// write stores the spans as NDJSON, one span per line.
func (l *spanLog) write(path string) error {
	selfTimes(l.spans)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// profileLayers are the layers a CPU profile is folded into. The
// experiments layer has no share of its own: the Runner's fan-out is
// almost never the leaf frame (its cost shows as runtime scheduling and
// as idle workers), so its code folds into core and the layer is
// measured by fanout.par_eff instead.
var profileLayers = []string{"sim", "link", "router", "vault", "host", "packet", "core", "runtime"}

// layerOf maps a Go package path to its benchmark layer. It returns ""
// for standard-library packages outside the runtime: their samples are
// charged to the nearest memnet caller.
func layerOf(pkg string) string {
	switch {
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case pkg == "main":
		return "bench"
	case pkg == "memnet":
		return "core"
	case !strings.HasPrefix(pkg, "memnet/internal/"):
		return ""
	}
	switch strings.TrimPrefix(pkg, "memnet/internal/") {
	case "sim":
		return "sim"
	case "link":
		return "link"
	case "router", "arb":
		return "router"
	case "vault", "mem":
		return "vault"
	case "host", "workload", "addr", "stats":
		return "host"
	case "packet":
		return "packet"
	}
	return "core" // core, topology, scenario, config, fault, energy, experiments, ...
}

// pkgOf extracts the package path from a symbol such as
// "memnet/internal/sim.(*Engine).Step" or "runtime.mallocgc".
func pkgOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// layerOfStack charges one sampled stack (leaf first): to the leaf's
// layer when the leaf is runtime or memnet code, otherwise to the
// nearest frame that has a layer.
func layerOfStack(frames []string) string {
	for _, fn := range frames {
		if l := layerOf(pkgOf(fn)); l != "" {
			return l
		}
	}
	return "other"
}

// foldProfile folds a CPU profile into per-layer shares of its samples
// with `go tool pprof -traces`, which ships with the toolchain.
func foldProfile(path string) (map[string]float64, error) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		return nil, err
	}
	out, err := exec.Command(goBin, "tool", "pprof", "-traces", path).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -traces %s: %w", path, err)
	}
	return foldTraces(string(out))
}

// foldTraces parses `pprof -traces` output: blocks separated by
// "-----------+" rules, each a sample value followed by the stack, leaf
// first, one frame per line. A pass too short to be sampled folds to no
// shares at all, which bench.profile_coverage then reports as 0.
func foldTraces(text string) (map[string]float64, error) {
	byLayer := map[string]float64{}
	var total float64
	for _, block := range strings.Split(text, "-----------+")[1:] {
		lines := strings.Split(block, "\n")[1:] // the rest of the rule
		var frames []string
		var v time.Duration
		for i, line := range lines {
			line = strings.TrimSuffix(strings.TrimSpace(line), " (inline)")
			if line == "" {
				break
			}
			if i == 0 {
				val, fn, ok := strings.Cut(line, " ")
				if !ok {
					return nil, fmt.Errorf("pprof traces: malformed sample line %q", line)
				}
				d, err := time.ParseDuration(val)
				if err != nil {
					return nil, fmt.Errorf("pprof traces: %w", err)
				}
				v, line = d, strings.TrimSpace(fn)
			}
			frames = append(frames, line)
		}
		if len(frames) == 0 {
			continue
		}
		byLayer[layerOfStack(frames)] += v.Seconds()
		total += v.Seconds()
	}
	for k := range byLayer {
		byLayer[k] /= total
	}
	return byLayer, nil
}
