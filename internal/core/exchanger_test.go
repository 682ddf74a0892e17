package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"distcover/internal/hypergraph"
)

// TestRunPartitionedMatchesFlat is the shared-memory leg of the cluster
// equivalence property: the barrier-based MemExchangerGroup must
// reconstruct RunFlat's result bit for bit across the full 1..8 partition
// sweep, cold and carry-warm-started, with the paper's per-iteration
// invariants (Claims 1, 2, 4) checked inside every partitioned run. The
// socket-transport leg of the same property lives in the cluster tests;
// this one isolates the partition plan and barrier exchange from the wire.
func TestRunPartitionedMatchesFlat(t *testing.T) {
	rng := rand.New(rand.NewSource(20260807))
	epss := []float64{1, 0.5, 0.25}
	for i := 0; i < 16; i++ {
		g := randomPartitionInstance(t, rng, i)
		opts := DefaultOptions()
		opts.Epsilon = epss[i%len(epss)]
		want, err := RunFlat(g, opts, nil, 2)
		if err != nil {
			t.Fatalf("instance %d: flat: %v", i, err)
		}
		checked := opts
		checked.CheckInvariants = true
		for parts := 1; parts <= 8; parts++ {
			got, err := RunPartitioned(context.Background(), g, checked, nil, parts)
			if err != nil {
				t.Fatalf("instance %d parts %d: %v", i, parts, err)
			}
			requirePartitionResult(t, fmt.Sprintf("mem instance %d parts %d", i, parts), got, want)
		}

		// Warm start: the carried duals shrink the residual problem; the
		// partitioned solver must agree with the residual flat solver at
		// every width, again with invariants on.
		carry := make([]float64, g.NumVertices())
		for v := range carry {
			carry[v] = rng.Float64() * 0.95 * float64(g.Weight(hypergraph.VertexID(v)))
		}
		wantWarm, err := RunFlat(g, opts, carry, 2)
		if err != nil {
			t.Fatalf("instance %d: residual flat: %v", i, err)
		}
		for parts := 1; parts <= 8; parts++ {
			gotWarm, err := RunPartitioned(context.Background(), g, checked, carry, parts)
			if err != nil {
				t.Fatalf("instance %d warm parts %d: %v", i, parts, err)
			}
			requirePartitionResult(t, fmt.Sprintf("mem instance %d warm parts %d", i, parts), gotWarm, wantWarm)
		}
	}
}

// TestRunPartitionedPropagatesSolverError: a solver-level failure in the
// partitions (iteration-limit overrun) must poison the barrier so every
// partition unblocks, and surface as the typed error — no deadlock.
func TestRunPartitionedPropagatesSolverError(t *testing.T) {
	g, err := hypergraph.UniformRandom(60, 180, 3, hypergraph.GenConfig{
		Seed: 5, Dist: hypergraph.WeightUniformRange, MaxWeight: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.MaxIterations = 1
	done := make(chan error, 1)
	go func() {
		_, err := RunPartitioned(context.Background(), g, opts, nil, 4)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrIterationLimit) {
			t.Fatalf("err = %v, want ErrIterationLimit", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("partitioned run deadlocked on a failing partition")
	}
}

// TestRunPartitionedContextCancel: cancelling the context poisons the
// exchanger group, unblocks every partition and leaks no goroutines.
func TestRunPartitionedContextCancel(t *testing.T) {
	g, err := hypergraph.UniformRandom(400, 1200, 3, hypergraph.GenConfig{
		Seed: 11, Dist: hypergraph.WeightUniformRange, MaxWeight: 500,
	})
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled: the very first barrier must fail
	if _, err := RunPartitioned(ctx, g, DefaultOptions(), nil, 4); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= before {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked after cancel: %d before, %d after\n%s",
				before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestMemExchangerGroupFailUnblocksWaiters: Fail must release a partition
// already parked inside a barrier.
func TestMemExchangerGroupFailUnblocksWaiters(t *testing.T) {
	grp := NewMemExchangerGroup(2)
	sentinel := errors.New("poisoned")
	errCh := make(chan error, 1)
	go func() {
		_, err := grp.Exchanger(0).ExchangeBoundary(1, BoundaryFrame{Part: 0})
		errCh <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the exchanger park
	grp.Fail(sentinel)
	select {
	case err := <-errCh:
		if !errors.Is(err, sentinel) {
			t.Fatalf("err = %v, want sentinel", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Fail did not unblock the parked exchanger")
	}
	if _, err := grp.Exchanger(1).ExchangeCoverage(1, 0); !errors.Is(err, sentinel) {
		t.Fatalf("post-poison exchange err = %v, want sentinel", err)
	}
}
