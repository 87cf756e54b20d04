package main

import (
	"strings"
	"testing"
)

// TestRunExitStatus pins the exit status CI gates on: 1 with the
// finding printed for a package with one planted bug, 0 and silence
// for a clean one, 2 for an unknown analyzer name.
func TestRunExitStatus(t *testing.T) {
	cases := []struct {
		name       string
		args       []string
		wantCode   int
		wantStdout string
		wantStderr string
	}{
		{"finding", []string{"./testdata/bad"}, 1,
			"testdata/bad/bad.go:9:9: poolcheck: use of packet p after it was released to the pool at line 8\n", ""},
		{"clean", []string{"./testdata/clean"}, 0, "", ""},
		{"unknown analyzer", []string{"-c", "poolcheck,nosuch", "./testdata/bad"}, 2,
			"", "unknown analyzer"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr strings.Builder
			code := run(tc.args, &stdout, &stderr)
			if code != tc.wantCode {
				t.Errorf("exit status %d, want %d (stderr: %s)", code, tc.wantCode, stderr.String())
			}
			if stdout.String() != tc.wantStdout {
				t.Errorf("stdout %q, want %q", stdout.String(), tc.wantStdout)
			}
			if !strings.Contains(stderr.String(), tc.wantStderr) {
				t.Errorf("stderr %q does not mention %q", stderr.String(), tc.wantStderr)
			}
		})
	}
}
