package core

import (
	"encoding/json"
	"fmt"

	"memnet/internal/arb"
	"memnet/internal/config"
	"memnet/internal/fault"
	"memnet/internal/scenario"
	"memnet/internal/topology"
	"memnet/internal/workload"
)

// Run is one resolved run: the Params Resolve completed and checked,
// and the network they simulate. A Run is read-only, so every build of
// it, in any goroutine, shares its network.
type Run struct {
	p   Params
	net network
}

// Resolve completes and checks p into the run it describes, or returns
// an error naming the first field at fault; it is the one place a run
// is completed and validated. An all-zero Tuning becomes
// DefaultTuning(), and Fault is nil unless Enabled, else a copy with
// WithDefaults applied. Sys must pass System.Validate (ValidateBase for
// a scenario run, which declares its own cubes), and Transactions,
// Workload, Tuning and Fault their checks. The run's network is built
// (a built-in run's taken from the memo) and Topo set from it.
// Resolving a run's Params again gives the same run.
func Resolve(p Params) (*Run, error) {
	r := new(Run)
	if err := r.resolve(p); err != nil {
		return nil, err
	}
	return r, nil
}

// resolve is Resolve into r. It is split out so that Resolve inlines
// and a caller that only builds the run keeps it off the heap.
func (r *Run) resolve(p Params) error {
	var err error
	if p.Scenario != nil {
		err = p.Sys.ValidateBase()
	} else {
		err = p.Sys.Validate()
	}
	if err != nil {
		return err
	}
	if p.Transactions == 0 {
		return fmt.Errorf("core: Transactions is 0, want at least 1")
	}
	if err := p.Workload.Validate(); err != nil {
		return err
	}
	if p.Tuning == (Tuning{}) {
		p.Tuning = DefaultTuning()
	}
	if err := p.Tuning.Validate(); err != nil {
		return err
	}
	if p.Fault.Enabled() {
		f := p.Fault.WithDefaults()
		if err := f.Validate(); err != nil {
			return err
		}
		p.Fault = &f
	} else {
		p.Fault = nil
	}
	n, err := networkOf(&p)
	if err != nil {
		return err
	}
	p.Topo = n.graph.Kind
	r.p, r.net = p, n
	return nil
}

// Params returns the run's resolved parameters. Their pointer fields
// are the run's own and must not be modified.
func (r *Run) Params() Params { return r.p }

// Network returns the normalized spec and the graph the run simulates.
// Both are read-only: every build of the run shares them, and a
// built-in run's are shared with every run of its configuration.
func (r *Run) Network() (*scenario.Spec, *topology.Graph) { return r.net.spec, r.net.graph }

// view is what a build acts on for a run without side artifacts
// (replay, recording, telemetry, spans), as Resolve completed it, so
// every field of every struct in it is in Spec by construction. Topo
// and Scenario enter as Graph, the canonical bytes of the run's spec,
// so a built-in run and a run of its exported scenario share a Spec.
type view struct {
	Sys          config.System
	Graph        json.RawMessage
	Arb          arb.Kind
	Workload     workload.Spec
	Transactions uint64
	Seed         uint64
	Tuning       Tuning
	Fault        *fault.Config
}

// Spec returns the JSON encoding of the run's view: its identity, which
// the result cache addresses it by. It fails only on a value JSON cannot
// encode, such as a NaN in a field Resolve does not check.
func (r *Run) Spec() ([]byte, error) {
	p := &r.p
	return json.Marshal(view{
		Sys: p.Sys, Graph: r.net.spec.Canonical(), Arb: p.Arb, Workload: p.Workload,
		Transactions: p.Transactions, Seed: p.Seed, Tuning: p.Tuning, Fault: p.Fault,
	})
}

// Build constructs a simulation instance of the run on a fresh engine,
// wiring the run's network. It is laid out in memory an earlier
// Simulate recycled when the pool holds some, and in new memory
// otherwise. The Instance owns that memory either way and is never
// recycled, so it stays valid for as long as the caller keeps it.
func (r *Run) Build() (*Instance, error) { return r.build(pooledArena()) }

// Simulate builds the run, runs it, and hands the network's memory to
// the next build. The Instance never leaves Simulate, so nothing can
// use it after its run: Simulate is the one caller that recycles. A
// run through it allocates its network only when the pool holds no
// arena: a process's first runs, one per concurrent worker, and the
// first runs after two garbage collections.
func (r *Run) Simulate() (Results, error) {
	in, err := r.Build()
	if err != nil {
		return Results{}, err
	}
	res, err := in.Run()
	recycle(in.release())
	return res, err
}

// Build resolves p (Resolve) and builds the run (Run.Build).
func Build(p Params) (*Instance, error) {
	r, err := Resolve(p)
	if err != nil {
		return nil, err
	}
	return r.Build()
}

// Simulate resolves p (Resolve) and simulates the run (Run.Simulate).
func Simulate(p Params) (Results, error) {
	r, err := Resolve(p)
	if err != nil {
		return Results{}, err
	}
	return r.Simulate()
}
