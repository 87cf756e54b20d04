package campaign

import (
	_ "embed"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"

	"memnet/internal/core"
	"memnet/internal/obs"
)

//go:embed cache.schema.json
var cacheSchemaJSON []byte

// CacheEntrySchemaJSON returns the embedded JSON schema every cache
// envelope must satisfy (validated with the internal/obs stdlib schema
// subset on both read and write).
func CacheEntrySchemaJSON() []byte { return cacheSchemaJSON }

// Key is the human-readable summary stored alongside a cached result so
// cache directories can be audited without recomputing fingerprints. It
// identifies the run for a human; the fingerprint identifies it for the
// machine.
type Key struct {
	// Label is the paper-style configuration name (e.g. "50%-T (NVM-L)").
	Label string `json:"label"`
	// Workload names the traffic proxy.
	Workload string `json:"workload"`
	// Transactions is the trace length.
	Transactions uint64 `json:"transactions"`
	// Seed is the workload seed.
	Seed uint64 `json:"seed"`
	// Ports is the host port count (4 in the Fig. 13 system, else 8).
	Ports int `json:"ports,omitempty"`
	// Faulty marks runs with an armed fault scenario (the resilience
	// sweep).
	Faulty bool `json:"faulty,omitempty"`
}

// KeyOf summarizes a resolved run (core.Params.Resolved) for the
// envelope.
func KeyOf(r core.Params) Key {
	return Key{
		Label:        r.Label(),
		Workload:     r.Workload.Name,
		Transactions: r.Transactions,
		Seed:         r.Seed,
		Ports:        r.Sys.Ports,
		Faulty:       r.Fault != nil,
	}
}

// envelope is the on-disk layout of one cache entry: a schema-versioned
// wrapper whose checksum covers the canonical encoding of the results,
// so truncation, bit rot, and field drift all read as a miss rather
// than as data.
type envelope struct {
	Schema      string          `json:"schema"`
	Fingerprint string          `json:"fingerprint"`
	Checksum    string          `json:"checksum"`
	Key         Key             `json:"key"`
	Results     json.RawMessage `json:"results"`
}

// resultsChecksum is the integrity hash of a cached result: FNV-1a over
// the compact canonical JSON encoding of core.Results, prefixed with
// its length as 8 little-endian bytes. Encoding the
// decoded struct (rather than hashing stored bytes) makes the checksum
// sensitive to field drift: an entry written by a binary whose Results
// type differed fails verification instead of deserializing partially.
func resultsChecksum(res core.Results) (string, []byte, error) {
	raw, err := json.Marshal(res)
	if err != nil {
		return "", nil, err
	}
	h := fnv.New64a()
	h.Write(binary.LittleEndian.AppendUint64(nil, uint64(len(raw))))
	h.Write(raw)
	return fmt.Sprintf("%016x", h.Sum64()), raw, nil
}

// Store is a persistent, content-addressed result cache: one JSON
// envelope per fingerprint under a single directory. Writes are
// atomic (temp file + rename), so concurrent writers — fan-out workers,
// parallel mnexp invocations over the same directory — can never
// produce a torn entry; the worst race outcome is both writing the
// same bytes. Reads treat any malformed, mis-addressed, corrupt, or
// schema-stale entry as a miss: a bad cache can cost recomputation,
// never wrong results.
type Store struct {
	dir string
}

// Open returns a store rooted at dir, creating the directory if needed.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("campaign: empty cache directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// path returns the entry filename for a fingerprint.
func (s *Store) path(fp Fingerprint) string {
	return filepath.Join(s.dir, fp.String()+".json")
}

// Get returns the cached results for fp. Every failure mode — missing
// file, malformed JSON, schema mismatch (a version bump), fingerprint
// mismatch (a misnamed or cross-copied file), checksum mismatch
// (corruption or Results field drift) — returns ok=false so the caller
// recomputes instead of trusting the entry.
func (s *Store) Get(fp Fingerprint) (core.Results, bool) {
	raw, err := os.ReadFile(s.path(fp))
	if err != nil {
		return core.Results{}, false
	}
	if err := obs.ValidateJSON(cacheSchemaJSON, raw); err != nil {
		return core.Results{}, false
	}
	var env envelope
	if err := json.Unmarshal(raw, &env); err != nil {
		return core.Results{}, false
	}
	if env.Schema != CacheSchema || env.Fingerprint != fp.String() {
		return core.Results{}, false
	}
	var res core.Results
	if err := json.Unmarshal(env.Results, &res); err != nil {
		return core.Results{}, false
	}
	sum, _, err := resultsChecksum(res)
	if err != nil || sum != env.Checksum {
		return core.Results{}, false
	}
	return res, true
}

// Put writes one entry atomically: the envelope is assembled in a
// temporary file in the store directory and renamed over the final
// name, so readers only ever see complete entries.
func (s *Store) Put(fp Fingerprint, key Key, res core.Results) error {
	sum, raw, err := resultsChecksum(res)
	if err != nil {
		return fmt.Errorf("campaign: encode results: %w", err)
	}
	env := envelope{
		Schema:      CacheSchema,
		Fingerprint: fp.String(),
		Checksum:    sum,
		Key:         key,
		Results:     raw,
	}
	blob, err := json.MarshalIndent(&env, "", "  ")
	if err != nil {
		return fmt.Errorf("campaign: encode envelope: %w", err)
	}
	blob = append(blob, '\n')
	if err := obs.ValidateJSON(cacheSchemaJSON, blob); err != nil {
		return fmt.Errorf("campaign: envelope does not satisfy its own schema: %w", err)
	}
	tmp, err := os.CreateTemp(s.dir, ".put-*")
	if err != nil {
		return fmt.Errorf("campaign: %w", err)
	}
	_, werr := tmp.Write(blob)
	cerr := tmp.Close()
	if werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("campaign: write entry: %w", werr)
	}
	if err := os.Rename(tmp.Name(), s.path(fp)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("campaign: %w", err)
	}
	return nil
}
