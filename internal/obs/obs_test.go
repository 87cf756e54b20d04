package obs

import (
	"math/rand"
	"sort"
	"strings"
	"testing"

	"memnet/internal/sim"
)

// TestNilLayer: the disabled layer (nil registry / nil instruments)
// must be callable everywhere without effect.
func TestNilLayer(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	h := r.Histogram("y")
	r.Gauge("g", func() int64 { return 1 })
	r.Vec("v", nil, func() []uint64 { return nil })
	c.Inc()
	c.Add(5)
	h.Observe(123)
	if c.Value() != 0 || h.Count() != 0 {
		t.Fatal("nil instruments accumulated values")
	}
	if d := r.Dump(); d != nil {
		t.Fatal("nil registry dumped metrics")
	}
	var s *Sampler
	if s.Samples() != 0 || gaugeSeries(s, "g") != nil || s.WriteCSV(nil) != nil {
		t.Fatal("nil sampler not inert")
	}
	var cfg *Config
	if cfg.On() {
		t.Fatal("nil config enabled")
	}
	if cfg.Interval() != DefaultSampleInterval {
		t.Fatal("nil config interval")
	}
}

// TestRegistryDuplicatePanics: metric names are interned once.
func TestRegistryDuplicatePanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r.Counter("m")
}

// TestHistogramBuckets: every value maps to a bucket whose bounds
// contain it, across the full range.
func TestHistogramBuckets(t *testing.T) {
	vals := []sim.Time{0, 1, 2, 3, 4, 5, 7, 8, 15, 16, 100, 1000, 4095, 4096,
		1 << 20, 1<<40 + 12345, 1 << 47}
	for _, v := range vals {
		b := bucketOf(v)
		if b < 0 || b >= NumHistBuckets {
			t.Fatalf("bucketOf(%d) = %d out of range", v, b)
		}
		up := bucketUpper(b)
		if v > up {
			t.Errorf("value %d above its bucket %d upper bound %d", v, b, up)
		}
		if b > 0 {
			if lo := bucketUpper(b - 1); v <= lo {
				t.Errorf("value %d not above previous bucket upper %d (bucket %d)", v, lo, b)
			}
		}
	}
	// Monotone non-decreasing upper bounds.
	for i := 1; i < NumHistBuckets; i++ {
		if bucketUpper(i) < bucketUpper(i-1) {
			t.Fatalf("bucketUpper not monotone at %d", i)
		}
	}
}

// TestHistogramQuantile: nearest-rank quantiles of a known distribution
// land within one quarter-octave of the exact value, and min/max/mean
// are exact.
func TestHistogramQuantile(t *testing.T) {
	h := (&Registry{}).histForTest("h")
	rng := rand.New(rand.NewSource(42))
	var raw []sim.Time
	for i := 0; i < 10000; i++ {
		v := sim.Time(rng.Intn(1_000_000) + 1)
		raw = append(raw, v)
		h.Observe(v)
	}
	sort.Slice(raw, func(i, j int) bool { return raw[i] < raw[j] })
	if h.Count() != 10000 || h.Min() != raw[0] || h.Max() != raw[len(raw)-1] {
		t.Fatalf("count/min/max wrong: %d %d %d", h.Count(), h.Min(), h.Max())
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		rank := int(q*float64(len(raw))) - 1
		exact := raw[rank]
		got := h.Quantile(q)
		if got < exact || float64(got) > float64(exact)*1.19+1 {
			t.Errorf("Quantile(%.2f) = %d, exact %d (want within +19%%)", q, got, exact)
		}
	}
	// Degenerate single-value distribution: quantiles are exact.
	h2 := (&Registry{}).histForTest("h2")
	for i := 0; i < 5; i++ {
		h2.Observe(777)
	}
	if h2.Quantile(0.5) != 777 || h2.Quantile(1) != 777 {
		t.Fatalf("single-value quantiles: p50=%d p100=%d", h2.Quantile(0.5), h2.Quantile(1))
	}
}

// histForTest registers a histogram without the dup-check map so tests
// can construct them from a zero registry.
func (r *Registry) histForTest(name string) *Histogram {
	h := &Histogram{name: name}
	r.hists = append(r.hists, h)
	return h
}

// gaugeSeries returns the recorded series for the named gauge, or nil;
// a nil sampler has none.
func gaugeSeries(s *Sampler, name string) []int64 {
	if s == nil {
		return nil
	}
	for i := range s.gauges {
		if s.gauges[i].name == name {
			return s.series[i]
		}
	}
	return nil
}

// TestJain: known fairness values.
func TestJain(t *testing.T) {
	cases := []struct {
		xs   []uint64
		want float64
	}{
		{nil, 1},
		{[]uint64{0, 0, 0}, 1},
		{[]uint64{5, 5, 5, 5}, 1},
		{[]uint64{1, 0, 0, 0}, 0.25},
	}
	for _, c := range cases {
		if got := Jain(c.xs); got != c.want {
			t.Errorf("Jain(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// TestSampler: the engine probe drives rows at exact boundaries; CSV
// and series expose them; fairness differencing works on cumulative
// vectors.
func TestSampler(t *testing.T) {
	eng := sim.NewEngine()
	r := NewRegistry()
	var ticks int64
	svc := []uint64{0, 0}
	r.Gauge("ticks", func() int64 { return ticks })
	r.Vec("svc", []string{"a", "b"}, func() []uint64 { return svc })
	s := r.StartSampler(eng, 10)

	eng.At(5, func() { ticks = 1; svc[0] = 2 })
	eng.At(15, func() { ticks = 2; svc[0] = 3; svc[1] = 1 })
	eng.At(25, func() { ticks = 3 })
	eng.Run()

	if s.Samples() != 2 {
		t.Fatalf("samples = %d, want 2 (boundaries 10, 20)", s.Samples())
	}
	got := gaugeSeries(s, "ticks")
	if got[0] != 1 || got[1] != 2 {
		t.Fatalf("gauge series %v, want [1 2]", got)
	}
	rows := s.VecRows("svc")
	if rows[0][0] != 2 || rows[1][1] != 1 {
		t.Fatalf("vec rows %v", rows)
	}
	fair := s.FairnessSeries("svc")
	if fair[0] != Jain([]uint64{2, 0}) {
		t.Fatalf("fairness[0] = %v", fair[0])
	}
	// Second interval delta: a: 3-2=1, b: 1-0=1 → perfectly fair.
	if fair[1] != 1 {
		t.Fatalf("fairness[1] = %v, want 1", fair[1])
	}

	var b strings.Builder
	if err := s.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("CSV lines = %d, want header + 2 rows:\n%s", len(lines), b.String())
	}
	if lines[0] != "time_ps,ticks,svc[a],svc[b],jain(svc)" {
		t.Fatalf("CSV header %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "10,1,2,0,") {
		t.Fatalf("CSV row 1 %q", lines[1])
	}
}

// TestDumpSorted: Dump orders metrics by name regardless of
// registration order.
func TestDumpSorted(t *testing.T) {
	r := NewRegistry()
	r.Counter("zeta").Add(1)
	r.Counter("alpha").Add(2)
	d := r.Dump()
	if d.Counters[0].Name != "alpha" || d.Counters[1].Name != "zeta" {
		t.Fatalf("counters not sorted: %+v", d.Counters)
	}
}

// TestSchemaValidator: the minimal validator accepts conforming
// documents and pins down each violation class it supports.
func TestSchemaValidator(t *testing.T) {
	schema := []byte(`{
		"type": "object",
		"required": ["name"],
		"additionalProperties": false,
		"properties": {
			"name": {"type": "string"},
			"n": {"type": "integer"},
			"tags": {"type": "array", "items": {"type": "string"}}
		}
	}`)
	ok := [][]byte{
		[]byte(`{"name":"x"}`),
		[]byte(`{"name":"x","n":3,"tags":["a","b"]}`),
	}
	for _, doc := range ok {
		if err := ValidateJSON(schema, doc); err != nil {
			t.Errorf("valid doc rejected: %v", err)
		}
	}
	bad := [][]byte{
		[]byte(`{}`),                        // missing required
		[]byte(`{"name":5}`),                // wrong type
		[]byte(`{"name":"x","n":1.5}`),      // non-integer
		[]byte(`{"name":"x","tags":[1]}`),   // bad item
		[]byte(`{"name":"x","extra":true}`), // unexpected property
	}
	for _, doc := range bad {
		if err := ValidateJSON(schema, doc); err == nil {
			t.Errorf("invalid doc accepted: %s", doc)
		}
	}
	// The embedded manifest schema parses and validates a minimal doc.
	if err := ValidateManifestJSON([]byte(`{"schema":"memnet/run-manifest/v2","seed":1}`)); err != nil {
		t.Errorf("minimal manifest rejected: %v", err)
	}
	if err := ValidateManifestJSON([]byte(`{"seed":1}`)); err == nil {
		t.Error("manifest missing schema accepted")
	}
	// v2 machine blocks carry ports plus per-port events, finish time,
	// and barrier wait; the v1 engine gauges are rejected.
	machine := `{"schema":"memnet/run-manifest/v2","seed":1,"machine":{"ports":1,"shards":[{"shard":0,"events":9,"finish_ps":5,"barrier_wait_ps":0}]}}`
	if err := ValidateManifestJSON([]byte(machine)); err != nil {
		t.Errorf("v2 machine block rejected: %v", err)
	}
	for _, v1 := range []string{
		`{"schema":"memnet/run-manifest/v2","seed":1,"machine":{"ports":1,"windows":1,"shards":[]}}`,
		`{"schema":"memnet/run-manifest/v2","seed":1,"machine":{"ports":1,"shards":[{"shard":0,"events":9,"lookahead_slack":[0]}]}}`,
	} {
		if err := ValidateManifestJSON([]byte(v1)); err == nil {
			t.Errorf("v1 machine gauge accepted: %s", v1)
		}
	}
}
