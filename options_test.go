package distcover

import "testing"

// TestSolverParallelismOption: the frontier runner's worker count is 1 by
// default, WithFlatEngine is WithSolverParallelism(0), and the last option
// given wins.
func TestSolverParallelismOption(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts []Option
		want int
	}{
		{"default", nil, 1},
		{"flat engine", []Option{WithFlatEngine()}, 0},
		{"parallelism", []Option{WithSolverParallelism(3)}, 3},
		{"flat then parallelism", []Option{WithFlatEngine(), WithSolverParallelism(2)}, 2},
		{"parallelism then flat", []Option{WithSolverParallelism(2), WithFlatEngine()}, 0},
	} {
		if got := optConfig(tc.opts).parallelism; got != tc.want {
			t.Errorf("%s: parallelism %d, want %d", tc.name, got, tc.want)
		}
	}
}
