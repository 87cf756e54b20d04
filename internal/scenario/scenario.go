// Package scenario defines the declarative component-graph format
// ("memnet/scenario/v1"): a JSON document that names every cube,
// declares every link with optional per-link overrides, assigns
// per-router arbitration, and optionally embeds a workload and a fault
// plan. A scenario is data, not code — it can describe asymmetric and
// irregular graphs no compiled-in topology kind expresses, it is
// hashable by the campaign result cache, and the format reference in
// SCENARIOS.md is generated from the embedded schema so the two cannot
// drift.
//
// Loading is three layered passes, each with precise errors:
//
//  1. structural — the embedded JSON schema (obs.ValidateJSON subset)
//     rejects wrong shapes and unknown top-level keys;
//  2. decoding — encoding/json with DisallowUnknownFields rejects
//     unknown keys at every nesting level the schema subset cannot
//     reach (e.g. inside the routers map);
//  3. semantic — Validate addresses each fault by JSON path
//     ("links[3].b: unknown node ...") the way fault.Config.Build does.
//
// Specs are canonicalized (defaults materialized, then re-encoded with
// sorted object keys) before fingerprinting, so formatting, key order,
// and elided defaults never cause cache misses.
package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"

	"memnet/internal/arb"
	"memnet/internal/config"
	"memnet/internal/obs"
	"memnet/internal/sim"
	"memnet/internal/workload"
)

// Schema is the format identifier every scenario document must carry
// in its "schema" field. Incompatible format revisions bump the vN
// suffix; additive optional fields do not.
const Schema = "memnet/scenario/v1"

// HostName is the reserved node name for the host port (graph node 0).
// It never appears in the nodes list; links reference it directly.
const HostName = "host"

// Spec is a parsed scenario document. The zero value is not runnable;
// construct specs with Decode/Load or fill the fields and call
// Normalize before use.
type Spec struct {
	// Schema must equal the package Schema constant.
	Schema string `json:"schema"`
	// Name labels the scenario; it becomes the run label for graphs
	// that match no built-in topology kind.
	Name string `json:"name"`
	// Topology optionally names the built-in kind this graph
	// reproduces ("chain", "ring", "tree", "skiplist", "metacube",
	// "mesh"). When set, runs label and route exactly like the
	// compiled-in topology; when empty the graph is free-form.
	Topology string `json:"topology,omitempty"`
	// Nodes declares the cubes and interface chips. Graph NodeID is
	// the list index plus one (the host is node 0).
	Nodes []Node `json:"nodes"`
	// Links declares the edges; list order fixes port numbering and
	// the edge indices used by fault events, exactly as for a
	// compiled-in topology.
	Links []Link `json:"links"`
	// Routers holds per-router overrides keyed by node name.
	Routers map[string]Router `json:"routers,omitempty"`
	// Workload optionally embeds the traffic generator configuration.
	Workload *Workload `json:"workload,omitempty"`
	// Fault optionally embeds a fault plan.
	Fault *Fault `json:"fault,omitempty"`
}

// Node declares one memory cube or interface chip.
type Node struct {
	// Name is the unique identifier links and routers reference.
	Name string `json:"name"`
	// Kind is "cube" (default) or "iface" (a MetaCube-style
	// interface chip that switches but stores nothing).
	Kind string `json:"kind,omitempty"`
	// Tech is "dram" (default) or "nvm"; cubes only.
	Tech string `json:"tech,omitempty"`
	// Pos is the cube's host-proximity order used by distance
	// arbitration and partitioning. Either every cube sets it (a
	// permutation of 0..cubes-1) or none does (declaration order).
	Pos *int `json:"pos,omitempty"`
}

// Link declares one full-duplex edge. The override fields are
// pointers: nil inherits the system-wide value, a set value pins this
// one link.
type Link struct {
	// A names the first endpoint ("host" or a node name).
	A string `json:"a"`
	// B names the second endpoint ("host" or a node name).
	B string `json:"b"`
	// Express marks a skip link usable only by the long-path packet
	// class.
	Express bool `json:"express,omitempty"`
	// Interposer marks an on-package hop (MetaCube interior): wider,
	// faster, and exempt from transient link faults.
	Interposer bool `json:"interposer,omitempty"`
	// BandwidthBps overrides the per-direction link bandwidth.
	BandwidthBps *int64 `json:"bandwidth_bps,omitempty"`
	// SerDesPs overrides the serialization latency, in picoseconds.
	SerDesPs *int64 `json:"serdes_ps,omitempty"`
	// BufferPackets overrides queue depth and credits on this link.
	BufferPackets *int `json:"buffer_packets,omitempty"`
	// VCs overrides the virtual-channel count: 2 (default) keeps the
	// response-priority VC, 1 collapses both classes onto one lane.
	VCs *int `json:"vcs,omitempty"`
	// MaxRetries overrides the transient-fault retry budget for this
	// link (effective only when the fault block enables a LinkBER).
	MaxRetries *int `json:"max_retries,omitempty"`
}

// Router holds per-router overrides; absent fields inherit the
// run-wide arbitration policy and tuning.
type Router struct {
	// Arb is "rr", "distance", or "augmented".
	Arb string `json:"arb,omitempty"`
	// WriteDemotion overrides how many response grants one write
	// grant costs under distance arbitration.
	WriteDemotion *int64 `json:"write_demotion,omitempty"`
	// SwitchBandwidthBps overrides the crossbar bandwidth.
	SwitchBandwidthBps *int64 `json:"switch_bandwidth_bps,omitempty"`
}

// Workload embeds the traffic generator configuration: either a named
// suite entry or a fully custom spec, never both.
type Workload struct {
	// Suite names a built-in workload (BACKPROP, KMEANS, ...); when
	// set, every custom field must stay zero.
	Suite string `json:"suite,omitempty"`
	// Name labels a custom workload (default "custom").
	Name string `json:"name,omitempty"`
	// ReadFraction is the fraction of transactions that are reads.
	ReadFraction float64 `json:"read_fraction,omitempty"`
	// MeanGapPs is the mean inter-arrival gap in picoseconds at the
	// reference 8-port configuration; required for custom workloads.
	MeanGapPs int64 `json:"mean_gap_ps,omitempty"`
	// SeqProb is the probability the next address is sequential.
	SeqProb float64 `json:"seq_prob,omitempty"`
	// SeqStride is the sequential stride in bytes.
	SeqStride uint64 `json:"seq_stride,omitempty"`
	// HotFraction is the fraction of accesses hitting the hot region.
	HotFraction float64 `json:"hot_fraction,omitempty"`
	// HotRegion is the hot region size as a fraction of the space.
	HotRegion float64 `json:"hot_region,omitempty"`
	// RMWFraction is the fraction of reads followed by a write-back.
	RMWFraction float64 `json:"rmw_fraction,omitempty"`
	// BurstProb is the probability a transaction opens a burst.
	BurstProb float64 `json:"burst_prob,omitempty"`
	// BurstLen is the mean burst length in transactions.
	BurstLen int `json:"burst_len,omitempty"`
	// BurstWriteFrac is the write fraction inside bursts.
	BurstWriteFrac float64 `json:"burst_write_frac,omitempty"`
	// Window caps outstanding transactions at the reference 8-port
	// configuration (0 = system default).
	Window int `json:"window,omitempty"`
}

// Fault embeds a fault plan. Links are addressed by index into the
// links list; cubes by node name. Times are picoseconds.
type Fault struct {
	// Seed drives the per-packet corruption draw when LinkBER is set.
	Seed uint64 `json:"seed,omitempty"`
	// LinkBER is the per-packet corruption probability on external
	// links.
	LinkBER float64 `json:"link_ber,omitempty"`
	// MaxRetries is the run-wide retry budget before a link declares
	// itself failed (0 = fault-package default).
	MaxRetries int `json:"max_retries,omitempty"`
	// RetryBackoffPs is the retry backoff in picoseconds.
	RetryBackoffPs int64 `json:"retry_backoff_ps,omitempty"`
	// RetrainWindowPs enables link retraining: a link that exhausts
	// retries degrades for this many picoseconds instead of dying.
	RetrainWindowPs int64 `json:"retrain_window_ps,omitempty"`
	// Watchdog enables the stale-route watchdog.
	Watchdog bool `json:"watchdog,omitempty"`
	// KillLinks schedules hard link failures.
	KillLinks []LinkEvent `json:"kill_links,omitempty"`
	// RepairLinks schedules link repairs.
	RepairLinks []LinkEvent `json:"repair_links,omitempty"`
	// LaneFails schedules permanent half-bandwidth lane failures.
	LaneFails []LinkEvent `json:"lane_fails,omitempty"`
	// LaneFlaps schedules transient lane degradations.
	LaneFlaps []FlapEvent `json:"lane_flaps,omitempty"`
	// KillCubes schedules cube failures.
	KillCubes []CubeEvent `json:"kill_cubes,omitempty"`
	// RepairCubes schedules cube repairs.
	RepairCubes []CubeEvent `json:"repair_cubes,omitempty"`
}

// LinkEvent schedules a fault event on one link.
type LinkEvent struct {
	// Link indexes the links list.
	Link int `json:"link"`
	// AtPs is the event time in picoseconds.
	AtPs int64 `json:"at_ps"`
}

// FlapEvent schedules a transient lane degradation on one link.
type FlapEvent struct {
	// Link indexes the links list.
	Link int `json:"link"`
	// DownPs is the degradation start, in picoseconds.
	DownPs int64 `json:"down_ps"`
	// UpPs is the retrain-complete time, in picoseconds.
	UpPs int64 `json:"up_ps"`
}

// CubeEvent schedules a fault event on one cube.
type CubeEvent struct {
	// Cube names the affected node.
	Cube string `json:"cube"`
	// AtPs is the event time in picoseconds.
	AtPs int64 `json:"at_ps"`
	// Full makes a kill take the router down with the vaults
	// (kill_cubes only).
	Full bool `json:"full,omitempty"`
}

// Decode parses, validates, and normalizes a scenario document.
func Decode(data []byte) (*Spec, error) {
	if err := obs.ValidateJSON(SchemaJSON(), data); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	s := &Spec{}
	if err := dec.Decode(s); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	if err := s.Normalize(); err != nil {
		return nil, err
	}
	return s, nil
}

// Load reads and decodes a scenario document from r.
func Load(r io.Reader) (*Spec, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	return Decode(data)
}

// LoadFile reads and decodes the scenario file at path.
func LoadFile(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	s, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// Normalize materializes defaults (node kind/tech, cube positions,
// custom workload name) and then semantically validates the spec with
// path-addressed errors. It is idempotent; every consumer of a
// hand-built Spec must call it before use.
func (s *Spec) Normalize() error {
	if s.Schema != Schema {
		return fmt.Errorf("scenario: schema: got %q, want %q", s.Schema, Schema)
	}
	if s.Name == "" {
		return fmt.Errorf("scenario: name: required")
	}
	if len(s.Nodes) == 0 {
		return fmt.Errorf("scenario: nodes: at least one node required")
	}
	if err := s.normalizeNodes(); err != nil {
		return err
	}
	if err := s.validateLinks(); err != nil {
		return err
	}
	if err := s.validateRouters(); err != nil {
		return err
	}
	if err := s.normalizeWorkload(); err != nil {
		return err
	}
	return s.validateFault()
}

// normalizeNodes defaults node kind/tech, checks name uniqueness, and
// materializes the cube position permutation.
func (s *Spec) normalizeNodes() error {
	seen := make(map[string]bool, len(s.Nodes))
	withPos, cubes := 0, 0
	for i := range s.Nodes {
		n := &s.Nodes[i]
		switch {
		case n.Name == "":
			return fmt.Errorf("scenario: nodes[%d].name: required", i)
		case n.Name == HostName:
			return fmt.Errorf("scenario: nodes[%d].name: %q is reserved for the host port", i, HostName)
		case seen[n.Name]:
			return fmt.Errorf("scenario: nodes[%d].name: duplicate %q", i, n.Name)
		}
		seen[n.Name] = true
		switch n.Kind {
		case "":
			n.Kind = "cube"
		case "cube", "iface":
		default:
			return fmt.Errorf("scenario: nodes[%d].kind: %q is not \"cube\" or \"iface\"", i, n.Kind)
		}
		if n.Kind == "iface" {
			if n.Tech != "" {
				return fmt.Errorf("scenario: nodes[%d].tech: interface chips store nothing", i)
			}
			if n.Pos != nil {
				return fmt.Errorf("scenario: nodes[%d].pos: interface chips have no position", i)
			}
			continue
		}
		switch n.Tech {
		case "":
			n.Tech = "dram"
		case "dram", "nvm":
		default:
			return fmt.Errorf("scenario: nodes[%d].tech: %q is not \"dram\" or \"nvm\"", i, n.Tech)
		}
		cubes++
		if n.Pos != nil {
			withPos++
		}
	}
	if cubes == 0 {
		return fmt.Errorf("scenario: nodes: at least one cube required")
	}
	switch withPos {
	case 0:
		// Default: declaration order.
		pos := 0
		for i := range s.Nodes {
			if s.Nodes[i].Kind == "cube" {
				p := pos
				s.Nodes[i].Pos = &p
				pos++
			}
		}
	case cubes:
		used := make([]int, cubes) // position -> 1+node index, 0 = unused
		for i, n := range s.Nodes {
			if n.Kind != "cube" {
				continue
			}
			p := *n.Pos
			if p < 0 || p >= cubes {
				return fmt.Errorf("scenario: nodes[%d].pos: %d outside [0,%d)", i, p, cubes)
			}
			if used[p] != 0 {
				return fmt.Errorf("scenario: nodes[%d].pos: %d already used by nodes[%d]", i, p, used[p]-1)
			}
			used[p] = i + 1
		}
	default:
		return fmt.Errorf("scenario: nodes: pos set on %d of %d cubes; set it on all cubes or none", withPos, cubes)
	}
	return nil
}

// validateLinks resolves endpoints and checks the override ranges.
func (s *Spec) validateLinks() error {
	if len(s.Links) == 0 {
		return fmt.Errorf("scenario: links: at least one link required")
	}
	type pair struct{ a, b int }
	seen := make(map[pair]int, len(s.Links))
	hostLinks := 0
	for i, l := range s.Links {
		a, ok := s.idOf(l.A)
		if !ok {
			return fmt.Errorf("scenario: links[%d].a: unknown node %q", i, l.A)
		}
		b, ok := s.idOf(l.B)
		if !ok {
			return fmt.Errorf("scenario: links[%d].b: unknown node %q", i, l.B)
		}
		if a == b {
			return fmt.Errorf("scenario: links[%d]: self-loop on %q", i, l.A)
		}
		if a == 0 || b == 0 {
			hostLinks++
		}
		p := pair{a, b}
		if a > b {
			p = pair{b, a}
		}
		if prev, dup := seen[p]; dup {
			return fmt.Errorf("scenario: links[%d]: duplicates links[%d] (%s-%s)", i, prev, l.A, l.B)
		}
		seen[p] = i
		switch {
		case l.BandwidthBps != nil && *l.BandwidthBps <= 0:
			return fmt.Errorf("scenario: links[%d].bandwidth_bps: must be positive, got %d", i, *l.BandwidthBps)
		case l.BandwidthBps != nil && (*l.BandwidthBps < config.MinBandwidthBps || *l.BandwidthBps > config.MaxBandwidthBps):
			return fmt.Errorf("scenario: links[%d].bandwidth_bps: %d outside [%g, %d]", i, *l.BandwidthBps, float64(config.MinBandwidthBps), int64(config.MaxBandwidthBps))
		case l.SerDesPs != nil && *l.SerDesPs < 0:
			return fmt.Errorf("scenario: links[%d].serdes_ps: must be non-negative, got %d", i, *l.SerDesPs)
		case l.SerDesPs != nil && *l.SerDesPs > int64(config.MaxLatency):
			return fmt.Errorf("scenario: links[%d].serdes_ps: at most %d, got %d", i, int64(config.MaxLatency), *l.SerDesPs)
		case l.BufferPackets != nil && *l.BufferPackets <= 0:
			return fmt.Errorf("scenario: links[%d].buffer_packets: must be positive, got %d", i, *l.BufferPackets)
		case l.BufferPackets != nil && *l.BufferPackets > config.MaxBufferPackets:
			return fmt.Errorf("scenario: links[%d].buffer_packets: at most %d, got %d", i, config.MaxBufferPackets, *l.BufferPackets)
		case l.VCs != nil && (*l.VCs < 1 || *l.VCs > 2):
			return fmt.Errorf("scenario: links[%d].vcs: got %d, the router supports 1 or 2", i, *l.VCs)
		case l.MaxRetries != nil && *l.MaxRetries < 0:
			return fmt.Errorf("scenario: links[%d].max_retries: must be non-negative, got %d", i, *l.MaxRetries)
		}
	}
	if hostLinks != 1 {
		return fmt.Errorf("scenario: links: host must have exactly one link, got %d", hostLinks)
	}
	return nil
}

// validateRouters checks every override keys an existing node and the
// values are in range.
func (s *Spec) validateRouters() error {
	names := make([]string, 0, len(s.Routers))
	//lint:sorted keys collected then sorted so the first error is deterministic
	for name := range s.Routers {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		r := s.Routers[name]
		if _, ok := s.idOf(name); !ok || name == HostName {
			return fmt.Errorf("scenario: routers.%s: unknown node", name)
		}
		if _, err := ParseArb(r.Arb); r.Arb != "" && err != nil {
			return fmt.Errorf("scenario: routers.%s.arb: %w", name, err)
		}
		if r.WriteDemotion != nil && *r.WriteDemotion < 1 {
			return fmt.Errorf("scenario: routers.%s.write_demotion: must be at least 1, got %d", name, *r.WriteDemotion)
		}
		if r.SwitchBandwidthBps != nil && *r.SwitchBandwidthBps <= 0 {
			return fmt.Errorf("scenario: routers.%s.switch_bandwidth_bps: must be positive, got %d", name, *r.SwitchBandwidthBps)
		}
		if r.SwitchBandwidthBps != nil && (*r.SwitchBandwidthBps < config.MinBandwidthBps || *r.SwitchBandwidthBps > config.MaxBandwidthBps) {
			return fmt.Errorf("scenario: routers.%s.switch_bandwidth_bps: %d outside [%g, %d]", name, *r.SwitchBandwidthBps, float64(config.MinBandwidthBps), int64(config.MaxBandwidthBps))
		}
	}
	return nil
}

// normalizeWorkload enforces the suite-xor-custom rule and defaults
// the custom name.
func (s *Spec) normalizeWorkload() error {
	w := s.Workload
	if w == nil {
		return nil
	}
	if w.Suite != "" {
		if *w != (Workload{Suite: w.Suite}) {
			return fmt.Errorf("scenario: workload: suite %q excludes every custom field", w.Suite)
		}
		if _, err := workload.ByName(w.Suite); err != nil {
			return fmt.Errorf("scenario: workload.suite: %w", err)
		}
		return nil
	}
	switch {
	case w.MeanGapPs <= 0:
		return fmt.Errorf("scenario: workload.mean_gap_ps: must be positive, got %d", w.MeanGapPs)
	case w.ReadFraction < 0 || w.ReadFraction > 1:
		return fmt.Errorf("scenario: workload.read_fraction: %v outside [0,1]", w.ReadFraction)
	case w.SeqProb < 0 || w.SeqProb > 1:
		return fmt.Errorf("scenario: workload.seq_prob: %v outside [0,1]", w.SeqProb)
	case w.HotFraction < 0 || w.HotFraction > 1:
		return fmt.Errorf("scenario: workload.hot_fraction: %v outside [0,1]", w.HotFraction)
	case w.HotRegion < 0 || w.HotRegion > 1:
		return fmt.Errorf("scenario: workload.hot_region: %v outside [0,1]", w.HotRegion)
	case w.RMWFraction < 0 || w.RMWFraction > 1:
		return fmt.Errorf("scenario: workload.rmw_fraction: %v outside [0,1]", w.RMWFraction)
	case w.BurstProb < 0 || w.BurstProb > 1:
		return fmt.Errorf("scenario: workload.burst_prob: %v outside [0,1]", w.BurstProb)
	case w.BurstWriteFrac < 0 || w.BurstWriteFrac > 1:
		return fmt.Errorf("scenario: workload.burst_write_frac: %v outside [0,1]", w.BurstWriteFrac)
	case w.BurstLen < 0:
		return fmt.Errorf("scenario: workload.burst_len: must be non-negative, got %d", w.BurstLen)
	case w.Window < 0:
		return fmt.Errorf("scenario: workload.window: must be non-negative, got %d", w.Window)
	}
	if w.Name == "" {
		w.Name = "custom"
	}
	return nil
}

// validateFault resolves the fault plan's node names and link indices.
func (s *Spec) validateFault() error {
	f := s.Fault
	if f == nil {
		return nil
	}
	if f.LinkBER < 0 || f.LinkBER > 1 {
		return fmt.Errorf("scenario: fault.link_ber: %v outside [0,1]", f.LinkBER)
	}
	if f.MaxRetries < 0 {
		return fmt.Errorf("scenario: fault.max_retries: must be non-negative, got %d", f.MaxRetries)
	}
	for _, d := range []struct {
		field string
		ps    int64
	}{
		{"retry_backoff_ps", f.RetryBackoffPs},
		{"retrain_window_ps", f.RetrainWindowPs},
	} {
		if d.ps < 0 {
			return fmt.Errorf("scenario: fault.%s: must be non-negative, got %d", d.field, d.ps)
		}
	}
	link := func(field string, evs []LinkEvent) error {
		for i, ev := range evs {
			if ev.Link < 0 || ev.Link >= len(s.Links) {
				return fmt.Errorf("scenario: fault.%s[%d].link: %d outside [0,%d)", field, i, ev.Link, len(s.Links))
			}
			if ev.AtPs < 0 {
				return fmt.Errorf("scenario: fault.%s[%d].at_ps: must be non-negative, got %d", field, i, ev.AtPs)
			}
		}
		return nil
	}
	if err := link("kill_links", f.KillLinks); err != nil {
		return err
	}
	if err := link("repair_links", f.RepairLinks); err != nil {
		return err
	}
	if err := link("lane_fails", f.LaneFails); err != nil {
		return err
	}
	for i, ev := range f.LaneFlaps {
		if ev.Link < 0 || ev.Link >= len(s.Links) {
			return fmt.Errorf("scenario: fault.lane_flaps[%d].link: %d outside [0,%d)", i, ev.Link, len(s.Links))
		}
		if ev.DownPs < 0 || ev.UpPs <= ev.DownPs {
			return fmt.Errorf("scenario: fault.lane_flaps[%d]: window [%d,%d) is not a forward interval", i, ev.DownPs, ev.UpPs)
		}
	}
	cube := func(field string, evs []CubeEvent) error {
		for i, ev := range evs {
			id, ok := s.idOf(ev.Cube)
			if !ok || id == 0 {
				return fmt.Errorf("scenario: fault.%s[%d].cube: unknown node %q", field, i, ev.Cube)
			}
			if s.Nodes[id-1].Kind != "cube" {
				return fmt.Errorf("scenario: fault.%s[%d].cube: %q is an interface chip", field, i, ev.Cube)
			}
			if ev.AtPs < 0 {
				return fmt.Errorf("scenario: fault.%s[%d].at_ps: must be non-negative, got %d", field, i, ev.AtPs)
			}
		}
		return nil
	}
	if err := cube("kill_cubes", f.KillCubes); err != nil {
		return err
	}
	return cube("repair_cubes", f.RepairCubes)
}

// idOf resolves a node name to its graph NodeID: 0 for the host,
// index+1 for declared nodes.
func (s *Spec) idOf(name string) (int, bool) {
	if name == HostName {
		return 0, true
	}
	for i, n := range s.Nodes {
		if n.Name == name {
			return i + 1, true
		}
	}
	return 0, false
}

// NodeID resolves a node name to its graph node ID ("host" is 0).
func (s *Spec) NodeID(name string) (int, bool) { return s.idOf(name) }

// RouterOf returns the router override for the graph node with the
// given ID, if any.
func (s *Spec) RouterOf(id int) (Router, bool) {
	if id < 1 || id > len(s.Nodes) {
		return Router{}, false
	}
	r, ok := s.Routers[s.Nodes[id-1].Name]
	return r, ok
}

// Clone returns a deep copy of the spec.
func (s *Spec) Clone() *Spec {
	c := *s
	c.Nodes = append([]Node(nil), s.Nodes...)
	for i, n := range c.Nodes {
		if n.Pos != nil {
			p := *n.Pos
			c.Nodes[i].Pos = &p
		}
	}
	c.Links = append([]Link(nil), s.Links...)
	for i := range c.Links {
		l := &c.Links[i]
		l.BandwidthBps = cloneOf(l.BandwidthBps)
		l.SerDesPs = cloneOf(l.SerDesPs)
		l.BufferPackets = cloneOf(l.BufferPackets)
		l.VCs = cloneOf(l.VCs)
		l.MaxRetries = cloneOf(l.MaxRetries)
	}
	if s.Routers != nil {
		c.Routers = make(map[string]Router, len(s.Routers))
		//lint:sorted map-to-map copy; the result is order-independent
		for name, r := range s.Routers {
			r.WriteDemotion = cloneOf(r.WriteDemotion)
			r.SwitchBandwidthBps = cloneOf(r.SwitchBandwidthBps)
			c.Routers[name] = r
		}
	}
	if s.Workload != nil {
		w := *s.Workload
		c.Workload = &w
	}
	if s.Fault != nil {
		f := *s.Fault
		f.KillLinks = append([]LinkEvent(nil), s.Fault.KillLinks...)
		f.RepairLinks = append([]LinkEvent(nil), s.Fault.RepairLinks...)
		f.LaneFails = append([]LinkEvent(nil), s.Fault.LaneFails...)
		f.LaneFlaps = append([]FlapEvent(nil), s.Fault.LaneFlaps...)
		f.KillCubes = append([]CubeEvent(nil), s.Fault.KillCubes...)
		f.RepairCubes = append([]CubeEvent(nil), s.Fault.RepairCubes...)
		c.Fault = &f
	}
	return &c
}

// cloneOf copies an optional override value.
func cloneOf[T any](p *T) *T {
	if p == nil {
		return nil
	}
	v := *p
	return &v
}

// Canonical returns the canonical re-encoding of the spec: defaults
// materialized, object keys sorted (encoding/json sorts map keys),
// compact. Two documents that mean the same run canonicalize to the
// same bytes, so the campaign fingerprint folds this instead of the
// raw file. Canonicalization is best-effort on invalid specs — it
// never fails, so fingerprints exist even for runs that will error.
func (s *Spec) Canonical() []byte {
	c := s.Clone()
	_ = c.Normalize()
	b, err := json.Marshal(c)
	if err != nil {
		return []byte("!uncanonical: " + err.Error())
	}
	return b
}

// ParseArb maps a scenario arbitration label to the arb.Kind.
func ParseArb(label string) (arb.Kind, error) {
	switch label {
	case "rr":
		return arb.RoundRobin, nil
	case "distance":
		return arb.Distance, nil
	case "augmented":
		return arb.DistanceAugmented, nil
	default:
		return 0, fmt.Errorf("unknown arbitration %q (rr | distance | augmented)", label)
	}
}

// WorkloadSpec converts the embedded workload block to the generator
// spec; ok is false when the scenario embeds none.
func (s *Spec) WorkloadSpec() (spec workload.Spec, ok bool, err error) {
	w := s.Workload
	if w == nil {
		return workload.Spec{}, false, nil
	}
	if w.Suite != "" {
		spec, err := workload.ByName(w.Suite)
		if err != nil {
			return workload.Spec{}, false, fmt.Errorf("scenario: workload.suite: %w", err)
		}
		return spec, true, nil
	}
	return workload.Spec{
		Name:           w.Name,
		ReadFraction:   w.ReadFraction,
		MeanGap:        sim.Time(w.MeanGapPs) * sim.Picosecond,
		SeqProb:        w.SeqProb,
		SeqStride:      w.SeqStride,
		HotFraction:    w.HotFraction,
		HotRegion:      w.HotRegion,
		RMWFraction:    w.RMWFraction,
		BurstProb:      w.BurstProb,
		BurstLen:       w.BurstLen,
		BurstWriteFrac: w.BurstWriteFrac,
		Window:         w.Window,
	}, true, nil
}

// The fault-block conversion to a fault.Config lives in internal/core
// (ScenarioFault): the fault package imports topology for chaos-plan
// generation, and topology imports this package, so scenario cannot
// import fault without a cycle.
