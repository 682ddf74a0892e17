package congest

import (
	"runtime"
	"sync"
)

// ShardedEngine executes the synchronous protocol with a fixed worker pool
// instead of a goroutine per node: the nodes are partitioned into Shards
// contiguous id ranges, and each round every shard's active nodes are
// stepped in place by one worker into that shard's Outbox. The round loop
// then routes all shards' sends into the next round's inboxes by a single
// counting pass over flat slices. No per-node channels exist and no
// allocation happens per node per round (outboxes come from a sync.Pool
// and the mailbox arenas are reused across rounds), so the engine sustains
// million-node networks at a small multiple of SequentialEngine's cost
// while still using every core.
//
// Results are bit-identical to SequentialEngine: within a shard nodes step
// in ascending id order and the shard outboxes are handed to the round
// loop in shard (= id) order, whose stable counting sort then delivers
// every node exactly the inbox — same envelopes, same order — the
// sequential engine would. The differential tests in this package and at
// the repository root verify this across all engines.
type ShardedEngine struct {
	// Shards is the number of node partitions (= workers); ≤ 0 means
	// runtime.GOMAXPROCS(0). It is capped at the node count.
	Shards int
}

var _ Engine = ShardedEngine{}

// outboxPool recycles shard outboxes between rounds and runs, so their
// send buffers are not regrown from scratch: a shard takes one per round,
// and the buffer the busiest shard of one round grew serves whichever
// shard is busiest in a later one.
var outboxPool = sync.Pool{New: func() any { return new(Outbox) }}

// Run implements Engine.
func (e ShardedEngine) Run(nw *Network, opts Options) (Metrics, error) {
	n := nw.NumNodes()
	p := e.Shards
	if p <= 0 {
		p = runtime.GOMAXPROCS(0)
	}
	p = max(1, min(p, n))

	// Fixed worker pool, alive for the whole run; the step hands out shard
	// indices each round and waits on the round barrier. Shard s covers
	// node ids [s·n/p, (s+1)·n/p); its worker touches only those nodes and
	// outs[s]. Sending on work orders the round state before every step.
	var (
		r                 *roundState
		outs              = make([]*Outbox, p) // the shard outboxes of the last round
		work              = make(chan int)
		roundWG, workerWG sync.WaitGroup
	)
	recycle := func() {
		for s, o := range outs {
			if o != nil {
				o.reset()
				outboxPool.Put(o)
				outs[s] = nil
			}
		}
	}
	defer recycle()
	for range p {
		workerWG.Add(1)
		go func() {
			defer workerWG.Done()
			for s := range work {
				rs, out := r, outboxPool.Get().(*Outbox)
				for id, hi := s*n/p, (s+1)*n/p; id < hi; id++ {
					if !rs.done[id] {
						out.from = NodeID(id)
						rs.stepDone[id] = nw.nodes[id].Step(rs.round, rs.inbox(id), out)
					}
				}
				outs[s] = out
				roundWG.Done()
			}
		}()
	}
	defer func() {
		close(work)
		workerWG.Wait()
	}()

	return runRounds(nw, opts, func(rs *roundState) ([]*Outbox, error) {
		recycle() // the round loop has delivered and emptied them
		r = rs
		roundWG.Add(p)
		for s := range p {
			work <- s
		}
		roundWG.Wait()
		return outs, nil
	})
}
