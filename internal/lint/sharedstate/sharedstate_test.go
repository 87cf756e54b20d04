package sharedstate_test

import (
	"testing"

	"memnet/internal/lint/analysistest"
	"memnet/internal/lint/sharedstate"
)

func TestSharedState(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), sharedstate.Analyzer,
		"memnet/internal/sim/ss",
		"memnet/internal/core/cs",
		"memnet/internal/fanout/fo",
		"example.com/notsim",
	)
}
