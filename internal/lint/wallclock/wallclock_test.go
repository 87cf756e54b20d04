package wallclock_test

import (
	"testing"

	"memnet/internal/lint/analysistest"
	"memnet/internal/lint/wallclock"
)

func TestWallclock(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), wallclock.Analyzer,
		"memnet/internal/core/wc",
		"memnet/internal/link/retrain",
		"memnet/internal/span/rec",
		"memnet/internal/workload/gen",
		"memnet/internal/prof/ok",
	)
}
