package main

import (
	"strings"
	"testing"

	"memnet/internal/topology"
)

// TestTopologyUsageCurrent pins the -topology help text to the kind
// registry that parses the flag.
func TestTopologyUsageCurrent(t *testing.T) {
	if want := strings.Join(topology.KindNames(), " | "); topoUsage != want {
		t.Errorf("-topology usage %q is stale; want %q", topoUsage, want)
	}
}
