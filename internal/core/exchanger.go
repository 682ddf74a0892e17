package core

import (
	"context"
	"fmt"
	"sync"

	"distcover/internal/hypergraph"
)

// This file implements the shared-memory exchange fast path: co-located
// partitions (several partition runners inside one process) synchronize
// through a barrier-based in-memory aggregator instead of framed TCP
// through a cluster coordinator. RunPartition is written against the
// Exchanger interface, so the solver code is byte-for-byte the same on
// both paths and the results stay bit-identical to RunFlat — the partition
// equivalence tests sweep this path at 1..8 partitions alongside the wire
// paths.

// MemExchangerGroup synchronizes np co-located partitions through shared
// memory: each iteration's boundary exchange is a barrier that collects
// every partition's frame and releases all waiters with the frames in
// ascending partition order, and the coverage exchange is the same barrier
// summing the owned-coverage counts. A group is single-use (one solve) and
// must be created with NewMemExchangerGroup.
//
// The group is poisonable: Fail unblocks every waiter with the given
// error, which is how a failed partition (or a cancelled context) tears
// the whole solve down without deadlocking the surviving partitions.
type MemExchangerGroup struct {
	parts int

	mu   sync.Mutex
	cond *sync.Cond
	err  error // first failure; sticky, poisons every exchange

	// Boundary barrier state. slots is indexed by partition; out is the
	// frozen copy handed to every waiter of the completed round (a fresh
	// slice per round, so a released waiter never races the next round's
	// deposits).
	bArrived int
	bIter    int
	bGen     uint64
	slots    []BoundaryFrame
	out      []BoundaryFrame

	// Coverage barrier state.
	cArrived int
	cIter    int
	cGen     uint64
	cSum     int
	cOut     int
}

// NewMemExchangerGroup returns a group synchronizing parts partitions.
func NewMemExchangerGroup(parts int) *MemExchangerGroup {
	g := &MemExchangerGroup{
		parts: parts,
		slots: make([]BoundaryFrame, parts),
	}
	g.cond = sync.NewCond(&g.mu)
	return g
}

// Exchanger returns the Exchanger partition part must pass to RunPartition.
func (g *MemExchangerGroup) Exchanger(part int) Exchanger {
	return &memExchanger{group: g, part: part}
}

// Fail poisons the group: every current and future exchange returns err.
// The first failure wins; later calls are no-ops.
func (g *MemExchangerGroup) Fail(err error) {
	if err == nil {
		return
	}
	g.mu.Lock()
	if g.err == nil {
		g.err = err
		g.cond.Broadcast()
	}
	g.mu.Unlock()
}

// Err returns the error the group was poisoned with, if any.
func (g *MemExchangerGroup) Err() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.err
}

// memExchanger is one partition's view of the group.
type memExchanger struct {
	group *MemExchangerGroup
	part  int
}

func (e *memExchanger) ExchangeBoundary(iteration int, local BoundaryFrame) ([]BoundaryFrame, error) {
	g := e.group
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.err != nil {
		return nil, g.err
	}
	if local.Part != e.part {
		err := fmt.Errorf("%w: exchanger %d got frame for partition %d", ErrPartitionOptions, e.part, local.Part)
		g.failLocked(err)
		return nil, err
	}
	if g.bArrived == 0 {
		g.bIter = iteration
	} else if iteration != g.bIter {
		err := fmt.Errorf("%w: boundary iteration %d while round %d in flight", ErrPartitionOptions, iteration, g.bIter)
		g.failLocked(err)
		return nil, err
	}
	g.slots[e.part] = local
	g.bArrived++
	if g.bArrived == g.parts {
		g.bArrived = 0
		g.bGen++
		g.out = append([]BoundaryFrame(nil), g.slots...)
		g.cond.Broadcast()
		return g.out, nil
	}
	gen := g.bGen
	for g.bGen == gen && g.err == nil {
		g.cond.Wait()
	}
	if g.err != nil {
		return nil, g.err
	}
	return g.out, nil
}

func (e *memExchanger) ExchangeCoverage(iteration, covered int) (int, error) {
	g := e.group
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.err != nil {
		return 0, g.err
	}
	if g.cArrived == 0 {
		g.cIter = iteration
		g.cSum = 0
	} else if iteration != g.cIter {
		err := fmt.Errorf("%w: coverage iteration %d while round %d in flight", ErrPartitionOptions, iteration, g.cIter)
		g.failLocked(err)
		return 0, err
	}
	g.cSum += covered
	g.cArrived++
	if g.cArrived == g.parts {
		g.cArrived = 0
		g.cGen++
		g.cOut = g.cSum
		g.cond.Broadcast()
		return g.cOut, nil
	}
	gen := g.cGen
	for g.cGen == gen && g.err == nil {
		g.cond.Wait()
	}
	if g.err != nil {
		return 0, g.err
	}
	return g.cOut, nil
}

// failLocked is Fail with g.mu already held.
func (g *MemExchangerGroup) failLocked(err error) {
	if g.err == nil {
		g.err = err
		g.cond.Broadcast()
	}
}

// RunPartitioned executes Algorithm MWHVC split into parts contiguous
// vertex-range partitions inside this process, one goroutine per partition
// over a shared-memory exchanger group — no sockets, no frame codec. A nil
// carry is a cold solve; a non-nil carry warm-starts the residual path
// exactly like RunFlat. The merged Result is bit-identical to
// RunFlat on the undivided instance for every partition count.
//
// Cancelling ctx poisons the exchanger group: every partition unblocks and
// the context error is returned. ctx may be nil (never cancelled).
func RunPartitioned(ctx context.Context, g *hypergraph.Hypergraph, opts Options, carry []float64, parts int) (*Result, error) {
	bounds := PlanPartitions(g, parts)
	np := len(bounds) - 1
	grp := NewMemExchangerGroup(np)
	if ctx != nil {
		watchDone := make(chan struct{})
		defer close(watchDone)
		go func() {
			select {
			case <-ctx.Done():
				grp.Fail(ctx.Err())
			case <-watchDone:
			}
		}()
	}
	partials := make([]*PartialResult, np)
	errs := make([]error, np)
	var wg sync.WaitGroup
	for p := 0; p < np; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			pr, err := RunPartition(g, opts, carry, bounds, p, grp.Exchanger(p))
			if err != nil {
				errs[p] = err
				// A partition that fails before (or between) exchanges must
				// not strand the others at the next barrier.
				grp.Fail(err)
				return
			}
			partials[p] = pr
		}(p)
	}
	wg.Wait()
	// Prefer the error that poisoned the group — the barrier propagates it
	// to every other partition, so per-partition errors may all be echoes.
	if err := grp.Err(); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return AssembleParts(g, opts, partials)
}
