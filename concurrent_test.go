package distcover_test

import (
	"sync"
	"testing"

	"distcover"
)

// TestConcurrentSolveSharedInstance verifies that one *Instance can be
// solved by many goroutines at once (run with -race): instances are
// immutable after construction, which is what lets the coverd server share
// a cached instance across its whole worker pool.
func TestConcurrentSolveSharedInstance(t *testing.T) {
	inst, err := distcover.NewInstance(
		[]int64{4, 2, 9, 3, 7, 1, 6, 2, 8, 5},
		[][]int{
			{0, 1, 2}, {1, 3, 4}, {2, 4, 5}, {0, 5, 6}, {3, 6, 7},
			{4, 7, 8}, {5, 8, 9}, {0, 9, 1}, {2, 7, 9}, {3, 5, 8},
		},
	)
	if err != nil {
		t.Fatal(err)
	}

	ref, err := distcover.Solve(inst, distcover.WithEpsilon(0.5))
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 16
	const iterations = 8
	var wg sync.WaitGroup
	errCh := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iterations; i++ {
				sol, err := distcover.Solve(inst, distcover.WithEpsilon(0.5))
				if err != nil {
					errCh <- err
					return
				}
				// The algorithm is deterministic, so concurrent runs must
				// agree exactly with the reference solution.
				if sol.Weight != ref.Weight || sol.Iterations != ref.Iterations {
					t.Errorf("concurrent run diverged: weight %d/%d iterations %d/%d",
						sol.Weight, ref.Weight, sol.Iterations, ref.Iterations)
					return
				}
				if !inst.IsCover(sol.Cover) {
					t.Error("concurrent run returned infeasible cover")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}

// TestConcurrentSolveCongestSharedInstance does the same through the real
// message protocol, mixing the sequential and sharded engines.
func TestConcurrentSolveCongestSharedInstance(t *testing.T) {
	inst, err := distcover.NewInstance(
		[]int64{3, 1, 4, 1, 5, 9, 2, 6},
		[][]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {6, 7}, {7, 0}, {0, 4}, {2, 6}},
	)
	if err != nil {
		t.Fatal(err)
	}
	ref, _, err := distcover.SolveCongest(inst, distcover.WithEpsilon(1))
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			opts := []distcover.Option{distcover.WithEpsilon(1)}
			if g%2 == 1 {
				opts = append(opts, distcover.WithShardedEngine())
			}
			sol, _, err := distcover.SolveCongest(inst, opts...)
			if err != nil {
				errCh <- err
				return
			}
			if sol.Weight != ref.Weight {
				t.Errorf("engine run diverged: weight %d want %d", sol.Weight, ref.Weight)
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}

// TestConcurrentHash verifies Instance.Hash is safe and stable under
// concurrent use alongside solves.
func TestConcurrentHash(t *testing.T) {
	inst, err := distcover.NewInstance([]int64{2, 3, 5}, [][]int{{0, 1}, {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	want := inst.Hash()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if got := inst.Hash(); got != want {
					t.Errorf("hash changed under concurrency: %s", got)
					return
				}
			}
		}()
	}
	wg.Wait()
}
