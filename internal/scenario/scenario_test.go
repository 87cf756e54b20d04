package scenario

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"memnet/internal/arb"
	"memnet/internal/sim"
)

// validDoc returns a small valid scenario as a mutable document tree.
func validDoc() map[string]any {
	return map[string]any{
		"schema": Schema,
		"name":   "unit",
		"nodes": []any{
			map[string]any{"name": "c0"},
			map[string]any{"name": "c1", "tech": "nvm"},
			map[string]any{"name": "sw", "kind": "iface"},
		},
		"links": []any{
			map[string]any{"a": "host", "b": "c0"},
			map[string]any{"a": "c0", "b": "sw", "interposer": true},
			map[string]any{"a": "sw", "b": "c1"},
		},
	}
}

// mustJSON marshals a document tree.
func mustJSON(t *testing.T, doc any) []byte {
	t.Helper()
	b, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestDecodeValid(t *testing.T) {
	s, err := Decode(mustJSON(t, validDoc()))
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "unit" || len(s.Nodes) != 3 || len(s.Links) != 3 {
		t.Fatalf("unexpected spec: %+v", s)
	}
	// Defaults materialized.
	if s.Nodes[0].Kind != "cube" || s.Nodes[0].Tech != "dram" {
		t.Errorf("node defaults not filled: %+v", s.Nodes[0])
	}
	if s.Nodes[0].Pos == nil || *s.Nodes[0].Pos != 0 || s.Nodes[1].Pos == nil || *s.Nodes[1].Pos != 1 {
		t.Errorf("cube positions not defaulted: %+v %+v", s.Nodes[0], s.Nodes[1])
	}
	if s.Nodes[2].Pos != nil {
		t.Errorf("iface must not get a position: %+v", s.Nodes[2])
	}
}

// TestDecodeRejects is the table-driven rejection suite: every entry
// is one malformed document and the path-addressed error it must
// produce.
func TestDecodeRejects(t *testing.T) {
	cases := []struct {
		name string
		mut  func(doc map[string]any)
		want string
	}{
		{"bad-schema", func(d map[string]any) { d["schema"] = "memnet/scenario/v0" },
			`schema: got "memnet/scenario/v0"`},
		{"missing-name", func(d map[string]any) { delete(d, "name") },
			`missing required property "name"`},
		{"empty-nodes", func(d map[string]any) { d["nodes"] = []any{} },
			"nodes: at least one node required"},
		{"unknown-top-key", func(d map[string]any) { d["cubes"] = []any{} },
			`unexpected property "cubes"`},
		{"unknown-node-key", func(d map[string]any) {
			d["nodes"].([]any)[0].(map[string]any)["speed"] = 1
		}, `unexpected property "speed"`},
		{"node-bad-kind", func(d map[string]any) {
			d["nodes"].([]any)[0].(map[string]any)["kind"] = "switch"
		}, `nodes[0].kind: "switch"`},
		{"node-bad-tech", func(d map[string]any) {
			d["nodes"].([]any)[0].(map[string]any)["tech"] = "sram"
		}, `nodes[0].tech: "sram"`},
		{"node-reserved-name", func(d map[string]any) {
			d["nodes"].([]any)[0].(map[string]any)["name"] = "host"
		}, `nodes[0].name: "host" is reserved`},
		{"node-duplicate-name", func(d map[string]any) {
			d["nodes"].([]any)[1].(map[string]any)["name"] = "c0"
		}, `nodes[1].name: duplicate "c0"`},
		{"iface-tech", func(d map[string]any) {
			d["nodes"].([]any)[2].(map[string]any)["tech"] = "nvm"
		}, "nodes[2].tech: interface chips store nothing"},
		{"iface-pos", func(d map[string]any) {
			d["nodes"].([]any)[2].(map[string]any)["pos"] = 0
		}, "nodes[2].pos: interface chips have no position"},
		{"partial-pos", func(d map[string]any) {
			d["nodes"].([]any)[0].(map[string]any)["pos"] = 0
		}, "pos set on 1 of 2 cubes"},
		{"pos-out-of-range", func(d map[string]any) {
			d["nodes"].([]any)[0].(map[string]any)["pos"] = 0
			d["nodes"].([]any)[1].(map[string]any)["pos"] = 5
		}, "nodes[1].pos: 5 outside [0,2)"},
		{"pos-duplicate", func(d map[string]any) {
			d["nodes"].([]any)[0].(map[string]any)["pos"] = 1
			d["nodes"].([]any)[1].(map[string]any)["pos"] = 1
		}, "nodes[1].pos: 1 already used by nodes[0]"},
		{"link-unknown-a", func(d map[string]any) {
			d["links"].([]any)[1].(map[string]any)["a"] = "c9"
		}, `links[1].a: unknown node "c9"`},
		{"link-unknown-b", func(d map[string]any) {
			d["links"].([]any)[1].(map[string]any)["b"] = "c9"
		}, `links[1].b: unknown node "c9"`},
		{"link-self-loop", func(d map[string]any) {
			d["links"].([]any)[1].(map[string]any)["b"] = "c0"
		}, `links[1]: self-loop on "c0"`},
		{"link-duplicate", func(d map[string]any) {
			d["links"] = append(d["links"].([]any),
				map[string]any{"a": "sw", "b": "c0"})
		}, "links[3]: duplicates links[1]"},
		{"no-host-link", func(d map[string]any) {
			d["links"].([]any)[0].(map[string]any)["a"] = "c1"
		}, "host must have exactly one link, got 0"},
		{"two-host-links", func(d map[string]any) {
			d["links"] = append(d["links"].([]any),
				map[string]any{"a": "host", "b": "c1"})
		}, "host must have exactly one link, got 2"},
		{"link-bad-bandwidth", func(d map[string]any) {
			d["links"].([]any)[1].(map[string]any)["bandwidth_bps"] = -1
		}, "links[1].bandwidth_bps: must be positive"},
		{"link-bad-serdes", func(d map[string]any) {
			d["links"].([]any)[1].(map[string]any)["serdes_ps"] = -5
		}, "links[1].serdes_ps: must be non-negative"},
		{"link-bad-buffer", func(d map[string]any) {
			d["links"].([]any)[1].(map[string]any)["buffer_packets"] = 0
		}, "links[1].buffer_packets: must be positive"},
		{"link-deep-buffer", func(d map[string]any) {
			d["links"].([]any)[1].(map[string]any)["buffer_packets"] = 1<<30 + 1
		}, "links[1].buffer_packets: at most 1073741824"},
		{"link-bad-vcs", func(d map[string]any) {
			d["links"].([]any)[1].(map[string]any)["vcs"] = 3
		}, "links[1].vcs: got 3"},
		{"link-float-vcs", func(d map[string]any) {
			d["links"].([]any)[1].(map[string]any)["vcs"] = 1.5
		}, "links[1].vcs: got number, want [integer]"},
		{"router-unknown-node", func(d map[string]any) {
			d["routers"] = map[string]any{"c9": map[string]any{"arb": "rr"}}
		}, "routers.c9: unknown node"},
		{"router-host", func(d map[string]any) {
			d["routers"] = map[string]any{"host": map[string]any{"arb": "rr"}}
		}, "routers.host: unknown node"},
		{"router-bad-arb", func(d map[string]any) {
			d["routers"] = map[string]any{"c0": map[string]any{"arb": "fifo"}}
		}, `routers.c0.arb: unknown arbitration "fifo"`},
		{"router-unknown-key", func(d map[string]any) {
			d["routers"] = map[string]any{"c0": map[string]any{"policy": "rr"}}
		}, `unknown field "policy"`},
		{"router-bad-demotion", func(d map[string]any) {
			d["routers"] = map[string]any{"c0": map[string]any{"write_demotion": 0}}
		}, "routers.c0.write_demotion: must be at least 1"},
		{"workload-suite-and-custom", func(d map[string]any) {
			d["workload"] = map[string]any{"suite": "KMEANS", "read_fraction": 0.5}
		}, `workload: suite "KMEANS" excludes`},
		{"workload-unknown-suite", func(d map[string]any) {
			d["workload"] = map[string]any{"suite": "NOPE"}
		}, "workload.suite:"},
		{"workload-no-gap", func(d map[string]any) {
			d["workload"] = map[string]any{"read_fraction": 0.5}
		}, "workload.mean_gap_ps: must be positive"},
		{"workload-bad-fraction", func(d map[string]any) {
			d["workload"] = map[string]any{"mean_gap_ps": 1000, "read_fraction": 1.5}
		}, "workload.read_fraction: 1.5 outside [0,1]"},
		{"fault-bad-ber", func(d map[string]any) {
			d["fault"] = map[string]any{"link_ber": 2.0}
		}, "fault.link_ber: 2 outside [0,1]"},
		{"fault-link-out-of-range", func(d map[string]any) {
			d["fault"] = map[string]any{"kill_links": []any{
				map[string]any{"link": 7, "at_ps": 0},
			}}
		}, "fault.kill_links[0].link: 7 outside [0,3)"},
		{"fault-unknown-cube", func(d map[string]any) {
			d["fault"] = map[string]any{"kill_cubes": []any{
				map[string]any{"cube": "c9", "at_ps": 0},
			}}
		}, `fault.kill_cubes[0].cube: unknown node "c9"`},
		{"fault-kill-iface", func(d map[string]any) {
			d["fault"] = map[string]any{"kill_cubes": []any{
				map[string]any{"cube": "sw", "at_ps": 0},
			}}
		}, `fault.kill_cubes[0].cube: "sw" is an interface chip`},
		{"fault-backward-flap", func(d map[string]any) {
			d["fault"] = map[string]any{"lane_flaps": []any{
				map[string]any{"link": 1, "down_ps": 10, "up_ps": 5},
			}}
		}, "fault.lane_flaps[0]: window [10,5)"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			doc := validDoc()
			tc.mut(doc)
			_, err := Decode(mustJSON(t, doc))
			if err == nil {
				t.Fatalf("decode accepted the document, want error containing %q", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not contain %q", err, tc.want)
			}
		})
	}
}

// TestCanonicalInvariance checks that formatting, key order, and
// elided defaults never change the canonical bytes.
func TestCanonicalInvariance(t *testing.T) {
	sparse := mustJSON(t, validDoc())
	// The same scenario, fully spelled out with defaults and noise
	// whitespace.
	explicit := []byte(`{
		"links": [
			{"b": "c0", "a": "host", "express": false},
			{"a": "c0", "b": "sw", "interposer": true},
			{"a": "sw", "b": "c1"}
		],
		"nodes": [
			{"name": "c0", "kind": "cube", "tech": "dram", "pos": 0},
			{"tech": "nvm", "name": "c1", "pos": 1},
			{"name": "sw", "kind": "iface"}
		],
		"name": "unit",
		"schema": "memnet/scenario/v1"
	}`)
	a, err := Decode(sparse)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Decode(explicit)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Canonical(), b.Canonical()) {
		t.Fatalf("canonical bytes differ:\n%s\n%s", a.Canonical(), b.Canonical())
	}
	// Canonical is stable under repeated application.
	if !bytes.Equal(a.Canonical(), a.Canonical()) {
		t.Fatal("canonical not deterministic")
	}
	// And round-trips through Decode unchanged.
	c, err := Decode(a.Canonical())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Canonical(), c.Canonical()) {
		t.Fatal("canonical bytes not a fixed point of Decode")
	}
}

// TestCanonicalSensitivity checks semantic changes do move the bytes.
func TestCanonicalSensitivity(t *testing.T) {
	base, err := Decode(mustJSON(t, validDoc()))
	if err != nil {
		t.Fatal(err)
	}
	doc := validDoc()
	doc["links"].([]any)[1].(map[string]any)["buffer_packets"] = 4
	mut, err := Decode(mustJSON(t, doc))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(base.Canonical(), mut.Canonical()) {
		t.Fatal("per-link override did not change canonical bytes")
	}
}

func TestNodeID(t *testing.T) {
	s, err := Decode(mustJSON(t, validDoc()))
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]int{HostName: 0, "c0": 1, "c1": 2, "sw": 3} {
		id, ok := s.NodeID(name)
		if !ok || id != want {
			t.Errorf("NodeID(%q) = %d,%v want %d,true", name, id, ok, want)
		}
	}
	if _, ok := s.NodeID("c9"); ok {
		t.Error("NodeID resolved an unknown name")
	}
}

func TestWorkloadSpecSuite(t *testing.T) {
	doc := validDoc()
	doc["workload"] = map[string]any{"suite": "KMEANS"}
	s, err := Decode(mustJSON(t, doc))
	if err != nil {
		t.Fatal(err)
	}
	wl, ok, err := s.WorkloadSpec()
	if err != nil || !ok || wl.Name != "KMEANS" {
		t.Fatalf("suite workload = %+v, %v, %v", wl, ok, err)
	}
}

func TestWorkloadSpecCustom(t *testing.T) {
	doc := validDoc()
	doc["workload"] = map[string]any{"mean_gap_ps": 2500, "read_fraction": 0.75}
	s, err := Decode(mustJSON(t, doc))
	if err != nil {
		t.Fatal(err)
	}
	wl, ok, err := s.WorkloadSpec()
	if err != nil || !ok {
		t.Fatal(ok, err)
	}
	if wl.Name != "custom" || wl.MeanGap != 2500*sim.Picosecond || wl.ReadFraction != 0.75 {
		t.Fatalf("custom workload = %+v", wl)
	}
}

func TestParseArb(t *testing.T) {
	for label, want := range map[string]arb.Kind{
		"rr": arb.RoundRobin, "distance": arb.Distance, "augmented": arb.DistanceAugmented,
	} {
		got, err := ParseArb(label)
		if err != nil || got != want {
			t.Errorf("ParseArb(%q) = %v, %v", label, got, err)
		}
	}
	if _, err := ParseArb("fifo"); err == nil {
		t.Error("ParseArb accepted an unknown label")
	}
}

// TestCloneIsolated checks Clone produces a fully independent copy.
func TestCloneIsolated(t *testing.T) {
	doc := validDoc()
	doc["links"].([]any)[0].(map[string]any)["buffer_packets"] = 8
	doc["routers"] = map[string]any{"c0": map[string]any{"arb": "rr"}}
	s, err := Decode(mustJSON(t, doc))
	if err != nil {
		t.Fatal(err)
	}
	c := s.Clone()
	*c.Links[0].BufferPackets = 99
	*c.Nodes[0].Pos = 42
	c.Routers["c0"] = Router{Arb: "distance"}
	if *s.Links[0].BufferPackets != 8 || *s.Nodes[0].Pos != 0 || s.Routers["c0"].Arb != "rr" {
		t.Fatal("clone shares state with the original")
	}
}
