package main

import (
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// minPasses is the fewest timed passes a run makes, however short its
// time budget.
const minPasses = 3

// A run reads the host time of a pass's setup calls setupsPerPass
// times before each timed pass, so the readings span the whole run and
// a burst of load from elsewhere on the machine cannot cover most of
// them. One setup takes under a millisecond on some workloads, too
// short to read steadily, so each reading times as many back-to-back
// setups as fill setupBatch.
const (
	setupsPerPass = 3
	setupBatch    = 20 * time.Millisecond
)

// sample is one timed pass.
type sample struct {
	wall, cpu      time.Duration
	mallocs, bytes uint64
	gcs            uint32
	gcCPU, allCPU  float64 // runtime/metrics CPU-time estimates, seconds
	rssMB          float64 // peak resident set during the pass
	out            passOut
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS restarts the peak-resident-set count (VmHWM) from the
// current resident set, so a pass's peak does not include the setup
// readings, warm-up or cross-check before it. It is best effort: where
// the kernel refuses, the peak covers the whole process so far.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// maxRSSMB is the peak resident set since resetPeakRSS. It reads VmHWM,
// not ru_maxrss, because ru_maxrss can neither be reset nor tell this
// image from the launcher that exec'd it.
func maxRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok { // "VmHWM:   12345 kB"
			if kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64); err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

func gcCPU() (gc, total float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// measurePass runs one pass after a collection, so one pass's garbage
// is not charged to the next, and restarts the peak resident set there.
func measurePass(w *workload, pc *passCtx) (sample, error) {
	runtime.GC()
	resetPeakRSS()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	gc0, all0 := gcCPU()
	cpu0 := cpuTime()
	t0 := time.Now()
	out, err := w.runPass(pc)
	wall := time.Since(t0)
	cpu := cpuTime() - cpu0
	gc1, all1 := gcCPU()
	runtime.ReadMemStats(&m1)
	return sample{
		wall: wall, cpu: cpu,
		mallocs: m1.Mallocs - m0.Mallocs, bytes: m1.TotalAlloc - m0.TotalAlloc,
		gcs: m1.NumGC - m0.NumGC, gcCPU: gc1 - gc0, allCPU: all1 - all0,
		rssMB: maxRSSMB(),
		out:   out,
	}, err
}

// workloadRun describes one workload run: one process started with
// -workload, by hand or by a full run.
type workloadRun struct {
	w        *workload
	seed     uint64
	workers  int
	seconds  time.Duration
	trace    bool
	traceDir string
	scale    float64 // input sizes and microbenchmark operation counts: 1, or smaller in tests
	log      io.Writer
	// components runs the layer microbenchmarks in a traced run. A full
	// run turns it off in its children and runs them once itself.
	components bool
}

func (r *workloadRun) ctx(spans *spanLog) *passCtx {
	return &passCtx{seed: r.seed, workers: r.workers, scale: r.scale, spans: spans}
}

// width is how many workers the workload keeps busy at most.
func (r *workloadRun) width() float64 {
	if r.w.fanout {
		return float64(r.workers)
	}
	return 1
}

// execute runs the workload: an untimed warm-up pass that is also the
// reference output, then either the one-time cross-check and timed
// passes, each after setupsPerPass setup readings, until the time
// budget, counted from the start of the run, is spent; or, when
// tracing, minPasses timed passes, a traced pass and the layer
// microbenchmarks.
func (r *workloadRun) execute() *workloadReport {
	start := time.Now()
	rep := &workloadReport{}
	fail := func(what string, err error) {
		rep.Failed++
		fmt.Fprintf(r.log, "perfbench: %s: %s: %v\n", r.w.name, what, err)
	}

	rep.Attempted++
	ref, err := r.w.runPass(r.ctx(nil))
	if err != nil {
		fail("warm-up pass", err)
		return rep
	}

	var setups []float64
	batch := 0 // setups per reading; 0 when tracing or once a setup failed
	if !r.trace {
		if r.w.cross != nil {
			rep.Attempted++
			if err := r.w.runCross(r.ctx(nil), ref); err != nil {
				fail("cross-check", err)
			}
		}
		rep.Attempted++
		if one, err := r.setupReading(1); err != nil {
			fail("setup", err)
		} else {
			batch = int(min(100, max(1, setupBatch.Seconds()/one)))
		}
	}

	var samples []sample
	for i := 0; i < minPasses || (!r.trace && time.Since(start) < r.seconds); i++ {
		for k := 0; k < setupsPerPass && batch > 0; k++ {
			s, err := r.setupReading(batch)
			if err != nil {
				fail("setup", err)
				batch = 0
				break
			}
			setups = append(setups, s)
		}
		rep.Attempted++
		s, err := measurePass(r.w, r.ctx(nil))
		if err == nil {
			err = sameDigest("timed pass", s.out.digest, ref.digest)
		}
		if err != nil {
			fail(fmt.Sprintf("timed pass %d", i+1), err)
			continue
		}
		samples = append(samples, s)
	}
	fmt.Fprintf(r.log, "perfbench: %s: %d timed passes, %.1fs into the run\n", r.w.name, len(samples), time.Since(start).Seconds())
	if len(samples) == 0 {
		return rep
	}

	if !r.trace {
		rep.EndToEnd = endToEndMetrics(samples, setups)
		rep.Sim = ref.acc.metrics()
	} else {
		rep.Attempted++
		layers, err := r.layerMetrics(samples, ref)
		if err != nil {
			fail("traced pass", err)
		}
		rep.PerLayer = layers
	}
	rep.Correct = rep.Failed == 0
	return rep
}

// setupReading returns the host time of one setup, in seconds, averaged
// over n back-to-back setups.
func (r *workloadRun) setupReading(n int) (float64, error) {
	runtime.GC() // as before a pass: earlier garbage is not charged here
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if err := r.w.runSetup(r.ctx(nil)); err != nil {
			return 0, err
		}
	}
	return time.Since(t0).Seconds() / float64(n), nil
}

// endToEndMetrics reduces the timed passes and setups.
func endToEndMetrics(samples []sample, setups []float64) map[string]dist {
	per := map[string]func(s sample) float64{
		"wall_s":         func(s sample) float64 { return s.wall.Seconds() },
		"sim_txn_per_s":  func(s sample) float64 { return float64(s.out.acc.txns) / s.wall.Seconds() },
		"events_per_s":   func(s sample) float64 { return float64(s.out.acc.events) / s.wall.Seconds() },
		"cpu_s":          func(s sample) float64 { return s.cpu.Seconds() },
		"allocs_per_txn": func(s sample) float64 { return float64(s.mallocs) / float64(s.out.acc.txns) },
		"bytes_per_txn":  func(s sample) float64 { return float64(s.bytes) / float64(s.out.acc.txns) },
		"max_rss_mb":     func(s sample) float64 { return s.rssMB },
	}
	out := map[string]dist{}
	for _, m := range endToEnd {
		f, ok := per[m.Name]
		if !ok {
			continue
		}
		xs := make([]float64, len(samples))
		for i, s := range samples {
			xs[i] = f(s)
		}
		out[m.Name] = newDist(m.Unit, xs)
	}
	if len(setups) > 0 {
		out["setup_s"] = newDist("s", setups)
	}
	return out
}

// layerMetrics derives the workload's layer metrics from its timed
// passes, runs the traced pass, and runs the layer microbenchmarks.
func (r *workloadRun) layerMetrics(samples []sample, ref passOut) (map[string]value, error) {
	col := func(f func(s sample) float64) float64 {
		xs := make([]float64, len(samples))
		for i, s := range samples {
			xs[i] = f(s)
		}
		return median(xs)
	}
	frac := func(v float64) value { return value{Unit: "frac", Value: v} }
	out := map[string]value{
		"fanout.par_eff":      frac(col(func(s sample) float64 { return s.cpu.Seconds() / (s.wall.Seconds() * r.width()) })),
		"runtime.gc_cpu_frac": frac(col(func(s sample) float64 { return s.gcCPU / max(s.allCPU, 1e-9) })),
		"runtime.gc_per_mtxn": {Unit: "1/Mtxn", Value: col(func(s sample) float64 { return float64(s.gcs) / float64(s.out.acc.txns) * 1e6 })},
	}
	timedWall := col(func(s sample) float64 { return s.wall.Seconds() })

	wall, shares, err := r.tracedPass(ref)
	if err != nil {
		return nil, err
	}
	out["bench.trace_overhead_frac"] = frac(wall.Seconds()/timedWall - 1)
	covered := 0.0
	for _, l := range profileLayers {
		out[l+".cpu_share"] = frac(shares[l])
		covered += shares[l]
	}
	out["bench.profile_coverage"] = frac(covered)

	if r.components {
		benches, err := runLayerBenches(r.seed, r.scale)
		if err != nil {
			return nil, err
		}
		maps.Copy(out, benches)
	}
	return out, nil
}

// tracedPass runs one more pass under a CPU profile with span
// recording, writes <workload>.cpu.pprof and <workload>.spans.ndjson to
// the trace directory, and folds the profile by layer. It must still
// reproduce the warm-up output.
func (r *workloadRun) tracedPass(ref passOut) (time.Duration, map[string]float64, error) {
	if err := os.MkdirAll(r.traceDir, 0o755); err != nil {
		return 0, nil, err
	}
	profPath := filepath.Join(r.traceDir, r.w.name+".cpu.pprof")
	f, err := os.Create(profPath)
	if err != nil {
		return 0, nil, err
	}
	spans := &spanLog{t0: time.Now()}
	runtime.GC()
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return 0, nil, err
	}
	t0 := time.Now()
	out, passErr := r.w.runPass(r.ctx(spans))
	wall := time.Since(t0)
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		return 0, nil, err
	}
	if passErr == nil {
		passErr = sameDigest("traced pass", out.digest, ref.digest)
	}
	if passErr != nil {
		return 0, nil, passErr
	}
	if err := spans.write(filepath.Join(r.traceDir, r.w.name+".spans.ndjson")); err != nil {
		return 0, nil, err
	}
	shares, err := foldProfile(profPath)
	return wall, shares, err
}
