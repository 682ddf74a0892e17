package server

import (
	"runtime"
	"testing"
)

// TestCapWorkers: a request's worker, shard and in-process partition
// counts are capped at GOMAXPROCS, and counts ≤ 0 keep their meaning.
func TestCapWorkers(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for _, tc := range []struct{ in, want int }{
		{-1, -1},
		{0, 0},
		{1, 1},
		{procs, procs},
		{procs + 1, procs},
		{1 << 20, procs},
	} {
		if got := capWorkers(tc.in); got != tc.want {
			t.Errorf("capWorkers(%d) = %d, want %d", tc.in, got, tc.want)
		}
	}
}
