package congest

import "fmt"

// SequentialEngine executes all nodes in id order within each round. Runs
// are fully deterministic and this is the reference implementation the
// other engines are verified against.
//
// Delivery uses the same flat counting-sort mailboxes as ShardedEngine
// (it is that engine with a single shard and no workers): every round the
// sends of all nodes are collected in ascending sender order, validated
// with one reused duplicate-detection map, and routed into a reusable
// envelope arena by a stable counting sort keyed on the destination. Each
// inbox therefore comes out sorted by sender with no per-round sort and no
// per-node allocation. Like the sharded engine, inbox slices alias the
// arena and are only valid for the duration of Step.
type SequentialEngine struct{}

var _ Engine = SequentialEngine{}

// Run implements Engine.
func (SequentialEngine) Run(nw *Network, opts Options) (Metrics, error) {
	maxRounds := opts.MaxRounds
	if maxRounds <= 0 {
		maxRounds = DefaultMaxRounds
	}
	n := nw.NumNodes()
	var metrics Metrics
	if n == 0 {
		return metrics, nil
	}
	var (
		remain   = n
		done     = make([]bool, n)
		stepDone = make([]bool, n)
		sends    []send     // this round's messages, ascending sender
		arena    []Envelope // current inboxes: node id's is arena[start[id]:start[id+1]]
		next     []Envelope // reused backing for the following round
		start    = make([]int32, n+1)
		counts   = make([]int32, n)
		pos      = make([]int32, n+1)
		seen     map[NodeID]bool // duplicate-send detection, reused across rounds
		out      Outbox
	)
	for round := 0; remain > 0; round++ {
		if round >= maxRounds {
			return metrics, fmt.Errorf("%w: %d rounds, %d nodes still active",
				ErrRoundLimit, maxRounds, remain)
		}
		metrics.Rounds = round + 1

		// Step phase: every active node in ascending id order.
		sends = sends[:0]
		for id := 0; id < n; id++ {
			if done[id] {
				continue
			}
			out.sends = out.sends[:0]
			stepDone[id] = nw.nodes[id].Step(round, arena[start[id]:start[id+1]], &out)
			for _, e := range out.sends {
				sends = append(sends, send{from: NodeID(id), to: e.From, msg: e.Msg})
			}
		}

		// Merge phase: validate, account metrics, count per destination.
		if opts.Validate {
			if seen == nil {
				seen = make(map[NodeID]bool)
			}
			if err := validateSends(nw, sends, seen); err != nil {
				return metrics, err
			}
		}
		var roundMsgs, total int64
		for i := range counts {
			counts[i] = 0
		}
		for _, s := range sends {
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
			if done[s.to] || stepDone[s.to] {
				continue // receiver already decided; message dropped
			}
			counts[s.to]++
			total++
		}
		if roundMsgs > metrics.MaxRoundMessages {
			metrics.MaxRoundMessages = roundMsgs
		}

		// Build the next arena with a stable counting sort by destination;
		// senders were visited ascending, so every inbox is sender-sorted.
		if cap(next) < int(total) {
			next = make([]Envelope, total)
		}
		next = next[:total]
		var off int32
		for id := 0; id < n; id++ {
			pos[id] = off
			off += counts[id]
		}
		pos[n] = off
		copy(counts, pos[:n]) // counts now holds the write cursor per node
		for _, s := range sends {
			if done[s.to] || stepDone[s.to] {
				continue
			}
			next[counts[s.to]] = Envelope{From: s.from, Msg: s.msg}
			counts[s.to]++
		}
		clear(sends) // drop Message references before reuse
		arena, next = next, arena
		start, pos = pos, start

		// Commit termination decisions.
		for id := 0; id < n; id++ {
			if !done[id] && stepDone[id] {
				done[id] = true
				remain--
			}
		}
	}
	return metrics, nil
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
