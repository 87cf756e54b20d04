package core

import (
	"fmt"
	"io"

	"memnet/internal/fault"
	"memnet/internal/span"
)

// spanRecorder is the run's span recorder: nil unless p arms span
// tracing.
func spanRecorder(p *Params) *span.Recorder {
	if !p.Spans.Enabled() {
		return nil
	}
	return span.NewRecorder(*p.Spans, p.Seed)
}

// WriteSpans exports the instance's completed causal spans as NDJSON
// (schema memnet/spans/v1): one header line carrying the run identity
// and sampling parameters, then one line per sampled transaction. It is
// an error to call it on an instance built without Params.Spans.
func (in *Instance) WriteSpans(w io.Writer) error {
	if in.Spans == nil {
		return fmt.Errorf("core: WriteSpans on an instance without span tracing (set Params.Spans)")
	}
	hdr := span.Header{
		Label:    in.Params.Label(),
		Workload: in.Params.Workload.Name,
		Seed:     in.Params.Seed,
		Stride:   in.Spans.Stride(),
		Dropped:  in.Spans.Dropped(),
	}
	return span.Write(w, hdr, in.Spans.Spans())
}

// TimelineEvent is one entry of the manifest's recovery timeline: a
// scheduled fault or repair with, for link repairs, the retrain window
// bounds and the end-of-run healed-bits evidence that traffic actually
// routed back over the repaired edge. JSON tags match the run-manifest
// schema's timeline entries.
type TimelineEvent struct {
	// Kind is the fault.EventKind name (e.g. "kill_link", "repair_link").
	Kind string `json:"kind"`
	// AtPs is when the event takes effect; for link repairs this is the
	// link-up instant, after the retrain window.
	AtPs int64 `json:"at_ps"`
	// StartPs is when retraining began (link repairs only).
	StartPs *int64 `json:"start_ps,omitempty"`
	// Edge is the topology edge index (link and lane events).
	Edge *int `json:"edge,omitempty"`
	// Node is the cube node (cube events).
	Node *int `json:"node,omitempty"`
	// HealedBitsAB / HealedBitsBA are the bits each direction carried
	// after its first completed retraining, read at manifest time (link
	// repairs only).
	HealedBitsAB *uint64 `json:"healed_bits_ab,omitempty"`
	HealedBitsBA *uint64 `json:"healed_bits_ba,omitempty"`
}

// timeline renders the instance's validated fault plan as manifest
// timeline entries, annotating link repairs with their retrain window
// and the per-direction healed-bits counters.
func (in *Instance) timeline() []TimelineEvent {
	if len(in.planEvents) == 0 {
		return nil
	}
	out := make([]TimelineEvent, 0, len(in.planEvents))
	for _, ev := range in.planEvents {
		te := TimelineEvent{Kind: ev.Kind.String(), AtPs: int64(ev.At)}
		switch ev.Kind {
		case fault.EvKillCube, fault.EvRepairCube:
			node := int(ev.Node)
			te.Node = &node
		default:
			edge := ev.Edge
			te.Edge = &edge
		}
		if ev.Kind == fault.EvRepairLink {
			start := int64(ev.Start)
			te.StartPs = &start
			if ev.Edge >= 0 && ev.Edge < len(in.dirs) {
				ab := in.dirs[ev.Edge].ab.HealedBits()
				ba := in.dirs[ev.Edge].ba.HealedBits()
				te.HealedBitsAB = &ab
				te.HealedBitsBA = &ba
			}
		}
		out = append(out, te)
	}
	return out
}
