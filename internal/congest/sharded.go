package congest

import (
	"fmt"
	"runtime"
	"sync"
)

// ShardedEngine executes the synchronous protocol with a fixed worker pool
// instead of a goroutine per node: the nodes are partitioned into Shards
// contiguous id ranges, each round every shard's active nodes are stepped
// in place by one worker, and the sends of all shards are routed into the
// next round's inboxes by a single counting pass over flat slices. No
// per-node channels exist and no allocation happens per node per round
// (outbox buffers come from a sync.Pool and the mailbox arenas are reused
// across rounds), so the engine sustains million-node networks at a small
// multiple of SequentialEngine's cost while still using every core.
//
// Results are bit-identical to SequentialEngine: within a shard nodes step
// in ascending id order, shard outboxes are merged in shard (= id) order,
// and the counting sort that builds the next round's inboxes is stable, so
// every node receives exactly the inbox — same envelopes, same order — that
// the sequential engine would deliver. The differential tests in this
// package and at the repository root verify this across all engines.
//
// As with SequentialEngine, inbox slices handed to Step alias an internal
// arena that is rewritten the following round; nodes must not retain them
// after Step returns (none of the protocols in this repository do).
type ShardedEngine struct {
	// Shards is the number of node partitions (= workers); ≤ 0 means
	// runtime.GOMAXPROCS(0). It is capped at the node count.
	Shards int
}

var _ Engine = ShardedEngine{}

// send is one queued message with explicit endpoints; shard outboxes hold
// these so the merge pass needs no per-node Outbox bookkeeping.
type send struct {
	from, to NodeID
	msg      Message
}

// shardOutbox is the per-shard send buffer; pooled to avoid re-growing a
// fresh slice every round.
type shardOutbox struct {
	sends []send
}

var shardOutboxPool = sync.Pool{New: func() any { return new(shardOutbox) }}

// shardedRun is the per-Run mutable state shared between the coordinator
// and the workers. Workers only touch disjoint node-index ranges plus their
// own shard outbox; the coordinator touches everything between rounds. The
// round-dispatch channel provides the happens-before edges.
type shardedRun struct {
	nw     *Network
	bounds []int // shard s covers node ids [bounds[s], bounds[s+1])

	round    int
	done     []bool // as of the previous round; read-only during steps
	stepDone []bool // written by workers at disjoint indices

	// Current round's inboxes: node id's inbox is arena[start[id]:start[id+1]].
	arena []Envelope
	start []int32

	outboxes []*shardOutbox // one per shard, collected by the coordinator
}

func (r *shardedRun) inboxOf(id int) []Envelope {
	return r.arena[r.start[id]:r.start[id+1]]
}

// stepShard steps every active node of shard s in ascending id order,
// accumulating sends into a pooled buffer.
func (r *shardedRun) stepShard(s int) {
	ob := shardOutboxPool.Get().(*shardOutbox)
	var out Outbox
	for id := r.bounds[s]; id < r.bounds[s+1]; id++ {
		if r.done[id] {
			continue
		}
		out.sends = out.sends[:0]
		r.stepDone[id] = r.nw.nodes[id].Step(r.round, r.inboxOf(id), &out)
		for _, e := range out.sends {
			ob.sends = append(ob.sends, send{from: NodeID(id), to: e.From, msg: e.Msg})
		}
	}
	r.outboxes[s] = ob
}

// validateSends applies the Validate-mode topology rules to a round's
// sends (one shard's for ShardedEngine, all of them for SequentialEngine):
// every destination must be a neighbor, and no sender may repeat a
// destination within the round. Sends are contiguous per sender (both
// engines append them in node order), so seen — reused across calls to
// avoid reallocation — is cleared at each sender-group boundary.
func validateSends(nw *Network, sends []send, seen map[NodeID]bool) error {
	for i, s := range sends {
		if i == 0 || sends[i-1].from != s.from {
			clear(seen)
		}
		if seen[s.to] {
			return fmt.Errorf("%w: node %d -> %d", ErrDuplicateSend, s.from, s.to)
		}
		seen[s.to] = true
		if !nw.valid(s.to) || !isNeighbor(nw, s.from, s.to) {
			return fmt.Errorf("%w: node %d -> %d", ErrNotNeighbor, s.from, s.to)
		}
	}
	return nil
}

// Run implements Engine.
func (e ShardedEngine) Run(nw *Network, opts Options) (Metrics, error) {
	maxRounds := opts.MaxRounds
	if maxRounds <= 0 {
		maxRounds = DefaultMaxRounds
	}
	n := nw.NumNodes()
	var metrics Metrics
	if n == 0 {
		return metrics, nil
	}
	p := e.Shards
	if p <= 0 {
		p = runtime.GOMAXPROCS(0)
	}
	if p > n {
		p = n
	}

	st := &shardedRun{
		nw:       nw,
		bounds:   make([]int, p+1),
		done:     make([]bool, n),
		stepDone: make([]bool, n),
		start:    make([]int32, n+1),
		outboxes: make([]*shardOutbox, p),
	}
	for s := 0; s <= p; s++ {
		st.bounds[s] = s * n / p
	}

	// Fixed worker pool, alive for the whole run; the coordinator hands out
	// shard indices each round and waits on the round barrier.
	work := make(chan int)
	var roundWG sync.WaitGroup
	var workerWG sync.WaitGroup
	for w := 0; w < p; w++ {
		workerWG.Add(1)
		go func() {
			defer workerWG.Done()
			for s := range work {
				st.stepShard(s)
				roundWG.Done()
			}
		}()
	}
	defer func() {
		close(work)
		workerWG.Wait()
	}()

	var (
		remain    = n
		nextArena []Envelope // reused backing for the following round's arena
		// int32 offsets keep the routing arrays compact; 2³¹ messages in a
		// single round would need >64 GiB of envelopes long before the
		// counters wrapped.
		counts = make([]int32, n)
		pos    = make([]int32, n+1)
		seen   map[NodeID]bool // duplicate-send detection, Validate only
	)
	for round := 0; remain > 0; round++ {
		if round >= maxRounds {
			return metrics, fmt.Errorf("%w: %d rounds, %d nodes still active",
				ErrRoundLimit, maxRounds, remain)
		}
		metrics.Rounds = round + 1

		// Parallel phase: all shards step their active nodes.
		st.round = round
		roundWG.Add(p)
		for s := 0; s < p; s++ {
			work <- s
		}
		roundWG.Wait()

		// Merge phase (single-threaded, shard = id order, so sends are
		// visited in ascending sender order exactly like SequentialEngine):
		// validate, account metrics, and count messages per destination.
		var roundMsgs, total int64
		for i := range counts {
			counts[i] = 0
		}
		for _, ob := range st.outboxes {
			if opts.Validate {
				if seen == nil {
					seen = make(map[NodeID]bool)
				}
				if err := validateSends(nw, ob.sends, seen); err != nil {
					return metrics, err
				}
			}
			for _, s := range ob.sends {
				if !nw.valid(s.to) {
					return metrics, fmt.Errorf("%w: node %d -> %d", ErrNotNeighbor, s.from, s.to)
				}
				b := s.msg.Bits()
				if opts.BitBudget > 0 && b > opts.BitBudget {
					return metrics, fmt.Errorf("%w: %d bits > budget %d (node %d -> %d, %T)",
						ErrMessageTooLarge, b, opts.BitBudget, s.from, s.to, s.msg)
				}
				metrics.Messages++
				roundMsgs++
				metrics.TotalBits += int64(b)
				if b > metrics.MaxMessageBits {
					metrics.MaxMessageBits = b
				}
				if st.done[s.to] {
					continue // receiver already decided; message dropped
				}
				counts[s.to]++
				total++
			}
		}
		if roundMsgs > metrics.MaxRoundMessages {
			metrics.MaxRoundMessages = roundMsgs
		}

		// Build the next arena with a stable counting sort by destination.
		// Senders are visited in ascending order, so every inbox comes out
		// sorted by sender.
		if cap(nextArena) < int(total) {
			nextArena = make([]Envelope, total)
		}
		nextArena = nextArena[:total]
		var off int32
		for id := 0; id < n; id++ {
			pos[id] = off
			off += counts[id]
		}
		pos[n] = off
		copy(counts, pos[:n]) // counts now holds the write cursor per node
		for _, ob := range st.outboxes {
			for _, s := range ob.sends {
				if st.done[s.to] {
					continue
				}
				nextArena[counts[s.to]] = Envelope{From: s.from, Msg: s.msg}
				counts[s.to]++
			}
		}

		// Recycle shard outboxes and swap mailboxes.
		for s, ob := range st.outboxes {
			clear(ob.sends) // drop Message references before pooling
			ob.sends = ob.sends[:0]
			shardOutboxPool.Put(ob)
			st.outboxes[s] = nil
		}
		st.arena, nextArena = nextArena, st.arena
		st.start, pos = pos, st.start

		// Commit termination decisions.
		for id := 0; id < n; id++ {
			if !st.done[id] && st.stepDone[id] {
				st.done[id] = true
				remain--
			}
		}
	}
	return metrics, nil
}
