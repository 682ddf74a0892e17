package congest

import "fmt"

// roundState is what an engine's step sees of the round loop: the round
// number, which nodes are still active, and the inboxes delivered to them.
type roundState struct {
	round    int
	done     []bool     // finished in an earlier round; read-only during a step
	stepDone []bool     // the step stores Step's result for every node it steps
	arena    []Envelope // this round's inboxes: node id's is arena[start[id]:start[id+1]]
	start    []int32
}

// inbox returns node id's inbox for this round, sorted by sender.
func (r *roundState) inbox(id int) []Envelope { return r.arena[r.start[id]:r.start[id+1]] }

// runRounds is the synchronous CONGEST round loop every engine runs. Each
// round step must call Step once on every node not yet done, with the
// node's inbox from r and an Outbox naming the node as sender, store the
// result in r.stepDone, and return the outboxes it filled. Everything else
// a round does happens here: the round limit, the Validate checks, the bit
// budget, every Metrics counter except WireBytes, delivery, and the commit
// of termination decisions. The loop empties the returned outboxes after
// delivering them, so engines reuse them round after round.
//
// Delivery is a stable counting sort keyed on the destination into one
// reused envelope arena: no per-round sort and no per-node allocation.
// Messages to nodes that finished this round or earlier are counted, then
// dropped. Every engine hands over its sends in ascending sender order —
// SequentialEngine steps in id order, each ShardedEngine shard steps its
// contiguous id range in id order and the shard outboxes are passed on in
// shard order, NetEngine reads outbox frames in id order — and the sort is
// stable, so every inbox comes out sorted by sender and every engine
// delivers exactly the inboxes the sequential reference does: results are
// bit-identical across engines.
func runRounds(nw *Network, opts Options, step func(r *roundState) ([]*Outbox, error)) (Metrics, error) {
	maxRounds := opts.MaxRounds
	if maxRounds <= 0 {
		maxRounds = DefaultMaxRounds
	}
	n := nw.NumNodes()
	var (
		done     = make([]bool, n)
		stepDone = make([]bool, n)
		r        = &roundState{done: done, stepDone: stepDone, start: make([]int32, n+1)}
		metrics  Metrics
		remain   = n
		next     []Envelope // reused backing for the following round's arena
		// int32 offsets keep the routing arrays compact; 2³¹ messages in a
		// single round would need >64 GiB of envelopes long before the
		// counters wrapped.
		counts = make([]int32, n)
		pos    = make([]int32, n+1)
		seen   map[NodeID]bool // duplicate-send detection, Validate only
	)
	for ; remain > 0; r.round++ {
		if r.round >= maxRounds {
			return metrics, fmt.Errorf("%w: %d rounds, %d nodes still active",
				ErrRoundLimit, maxRounds, remain)
		}
		metrics.Rounds = r.round + 1
		outs, err := step(r)
		if err != nil {
			return metrics, err
		}
		if opts.Validate {
			if seen == nil {
				seen = make(map[NodeID]bool)
			}
			for _, o := range outs {
				if err := validateSends(nw, o.sends, seen); err != nil {
					return metrics, err
				}
			}
		}
		// Commit termination before routing, so messages to nodes that
		// finished this round are dropped too.
		for id, d := range stepDone {
			if d && !done[id] {
				done[id] = true
				remain--
			}
		}

		// Account every message and count the deliveries per destination.
		var roundMsgs int64
		total := 0
		clear(counts)
		for _, o := range outs {
			for _, s := range o.sends {
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
				metrics.MaxMessageBits = max(metrics.MaxMessageBits, b)
				if !done[s.to] {
					counts[s.to]++
					total++
				}
			}
		}
		metrics.MaxRoundMessages = max(metrics.MaxRoundMessages, roundMsgs)

		// Build the next arena with the stable counting sort.
		if cap(next) < total {
			next = make([]Envelope, total)
		}
		next = next[:total]
		var off int32
		for id, c := range counts {
			pos[id] = off
			off += c
		}
		pos[n] = off
		copy(counts, pos[:n]) // counts now holds the write cursor per node
		for _, o := range outs {
			for _, s := range o.sends {
				if !done[s.to] {
					next[counts[s.to]] = Envelope{From: s.from, Msg: s.msg}
					counts[s.to]++
				}
			}
			o.reset()
		}
		r.arena, next = next, r.arena
		r.start, pos = pos, r.start
	}
	return metrics, nil
}

// validateSends applies the Validate-mode topology rules to one outbox's
// sends: every destination must be a neighbor, and no sender may repeat a
// destination within the round. Sends are contiguous per sender (engines
// step nodes one at a time into an outbox), so seen — reused across calls
// to avoid reallocation — is cleared at each sender-group boundary.
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

func isNeighbor(nw *Network, a, b NodeID) bool {
	// Scan the smaller adjacency list.
	la, lb := nw.adj[a], nw.adj[b]
	if len(lb) < len(la) {
		a, b = b, a
		la = nw.adj[a]
	}
	for _, x := range la {
		if x == b {
			return true
		}
	}
	return false
}
