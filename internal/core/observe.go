package core

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"memnet/internal/mem"
	"memnet/internal/packet"
	"memnet/internal/sim"
	"memnet/internal/topology"
	"memnet/internal/vault"
)

// NodeReport summarizes one node's routers and vaults after a run; the
// per-port service-share numbers make the paper's "parking lot"
// unfairness directly visible.
type NodeReport struct {
	Node      packet.NodeID
	Kind      topology.NodeKind
	Forwarded uint64
	Contended uint64
	// InputWait is total input-buffer residency across the node's ports
	// — the queuing metric of the paper's §3.2 router analysis.
	InputWait sim.Time
	// PortWait is the per-port mean input residency (external ports
	// first, then local vault ports).
	PortWait []sim.Time
	// Vault aggregates the node's quadrant controllers (zero for
	// interface chips).
	Vault vault.Stats
	Banks mem.BankStats
}

// Report builds per-node reports sorted by node ID. Nodes are walked
// in graph order (not router-map order) so the report is deterministic
// end to end.
func (in *Instance) Report() []NodeReport {
	out := make([]NodeReport, 0, len(in.nodes))
	// Every node's PortWait is a slice of one array.
	nPorts := 0
	for i := range in.nodes {
		if r := in.nodes[i].router; r != nil {
			nPorts += r.NumPorts()
		}
	}
	waits := make([]sim.Time, nPorts)
	for _, node := range in.Graph.Nodes {
		id := node.ID
		r := in.nodes[id].router
		if r == nil {
			continue
		}
		nr := NodeReport{
			Node:      id,
			Kind:      node.Kind,
			Forwarded: r.Forwarded[packet.VCRequest] + r.Forwarded[packet.VCResponse],
			Contended: r.Contended,
			InputWait: r.TotalInputWait(),
		}
		nr.PortWait, waits = waits[:r.NumPorts():r.NumPorts()], waits[r.NumPorts():]
		for i := range nr.PortWait {
			nr.PortWait[i] = r.InputBuffer(i).MeanWait()
		}
		for qi := range in.nodes[id].quads {
			q := &in.nodes[id].quads[qi]
			s := q.Stats()
			nr.Vault.Reads += s.Reads
			nr.Vault.Writes += s.Writes
			nr.Vault.WrongQuad += s.WrongQuad
			nr.Vault.QueueWait += s.QueueWait
			nr.Vault.ServiceTime += s.ServiceTime
			bs := q.BankStats()
			nr.Banks.Reads += bs.Reads
			nr.Banks.Writes += bs.Writes
			nr.Banks.RowHits += bs.RowHits
			nr.Banks.RowMisses += bs.RowMisses
			nr.Banks.RowConflicts += bs.RowConflicts
			nr.Banks.Refreshes += bs.Refreshes
			nr.Banks.BusyTime += bs.BusyTime
		}
		out = append(out, nr)
	}
	slices.SortFunc(out, func(a, b NodeReport) int { return cmp.Compare(a.Node, b.Node) })
	return out
}

// RowHitRate reports the fraction of bank accesses that hit an open row.
func (nr *NodeReport) RowHitRate() float64 {
	total := nr.Banks.RowHits + nr.Banks.RowMisses + nr.Banks.RowConflicts
	if total == 0 {
		return 0
	}
	return float64(nr.Banks.RowHits) / float64(total)
}

// WedgeDump renders the queue and credit state of the whole network —
// the diagnostic the watchdog attaches when it declares the simulation
// wedged. One line per node: each output port's queue occupancy,
// remaining transmit credits per VC, retry-buffer depth, and whether the
// port's link is dead, plus the router's input-buffer occupancies and
// reroute backlog. The host's in-flight window count leads the dump.
func (in *Instance) WedgeDump() string {
	var b strings.Builder
	fmt.Fprintf(&b, "wedge dump at %v: %d in flight, %d completed\n",
		in.Eng.Now(), in.Port.Inflight(), in.Collector.Completed())
	for _, n := range in.Graph.Nodes {
		r := in.nodes[n.ID].router
		if r == nil {
			continue
		}
		fmt.Fprintf(&b, "node %d (%v):", n.ID, n.Kind)
		if bl := r.RerouteBacklog(); bl > 0 {
			fmt.Fprintf(&b, " reroute-backlog=%d", bl)
		}
		for i := 0; i < r.NumPorts(); i++ {
			out := r.Output(i)
			fmt.Fprintf(&b, " p%d[in=%d/%d", i,
				r.InputBuffer(i).Len(packet.VCRequest),
				r.InputBuffer(i).Len(packet.VCResponse))
			fmt.Fprintf(&b, " outq=%d/%d cred=%d/%d",
				out.QueueLen(packet.VCRequest), out.QueueLen(packet.VCResponse),
				out.Credits(packet.VCRequest), out.Credits(packet.VCResponse))
			if rl := out.RetryLen(); rl > 0 {
				fmt.Fprintf(&b, " retry=%d", rl)
			}
			if out.Dead() {
				b.WriteString(" DEAD")
			}
			b.WriteString("]")
		}
		b.WriteString("\n")
	}
	return b.String()
}

// ReportText renders the per-node table for CLI consumption.
func (in *Instance) ReportText() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-5s %-6s %-6s %9s %9s %11s %8s %8s %7s\n",
		"node", "kind", "tech", "forwarded", "contended", "input-wait",
		"reads", "writes", "rowhit")
	for _, nr := range in.Report() {
		kind, tech := "cube", in.Graph.Nodes[nr.Node].Tech.String()
		if nr.Kind == topology.Iface {
			kind, tech = "iface", "-"
		}
		fmt.Fprintf(&b, "%-5d %-6s %-6s %9d %9d %11v %8d %8d %6.1f%%\n",
			nr.Node, kind, tech, nr.Forwarded, nr.Contended, nr.InputWait,
			nr.Vault.Reads, nr.Vault.Writes, nr.RowHitRate()*100)
	}
	return b.String()
}
