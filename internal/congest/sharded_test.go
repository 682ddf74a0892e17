package congest

import (
	"math/rand"
	"reflect"
	"testing"
)

// gossipNode floods the max of all ids it has heard for k rounds, then
// terminates. Unlike bfsNode it keeps every link busy every round, which
// exercises the sharded engine's mailbox routing under full load, including
// nodes that terminate at different times (staggered by id).
type gossipNode struct {
	id        NodeID
	neighbors []NodeID
	best      int64
	rounds    int
}

func (g *gossipNode) Step(round int, inbox []Envelope, out *Outbox) bool {
	for _, env := range inbox {
		if v := int64(env.Msg.(intMsg)); v > g.best {
			g.best = v
		}
	}
	if round >= g.rounds+int(g.id)%3 {
		return true // staggered termination: some peers outlive others
	}
	for _, nb := range g.neighbors {
		out.Send(nb, intMsg(g.best))
	}
	return false
}

func buildGossip(n, extra int, seed int64, rounds int) (*Network, []*gossipNode) {
	rng := rand.New(rand.NewSource(seed))
	nw := NewNetwork()
	nodes := make([]*gossipNode, n)
	for i := 0; i < n; i++ {
		nodes[i] = &gossipNode{id: NodeID(i), best: int64(i), rounds: rounds}
		nw.AddNode(nodes[i])
	}
	connect := func(a, b int) {
		if a == b || nw.Connect(NodeID(a), NodeID(b)) != nil {
			return
		}
		nodes[a].neighbors = append(nodes[a].neighbors, NodeID(b))
		nodes[b].neighbors = append(nodes[b].neighbors, NodeID(a))
	}
	for i := 1; i < n; i++ {
		connect(rng.Intn(i), i)
	}
	for k := 0; k < extra; k++ {
		connect(rng.Intn(n), rng.Intn(n))
	}
	return nw, nodes
}

// TestShardedMatchesSequential is the engine's core differential test: for
// a spread of network sizes and shard counts, the sharded engine must
// reproduce the sequential engine's metrics and node end states exactly.
func TestShardedMatchesSequential(t *testing.T) {
	for _, n := range []int{1, 2, 7, 33, 128, 500} {
		for _, shards := range []int{1, 2, 3, 8, 1000} {
			nwS, nodesS := buildGossip(n, n, int64(n), 4)
			mS, errS := SequentialEngine{}.Run(nwS, Options{Validate: true})
			if errS != nil {
				t.Fatalf("sequential n=%d: %v", n, errS)
			}
			nwH, nodesH := buildGossip(n, n, int64(n), 4)
			mH, errH := ShardedEngine{Shards: shards}.Run(nwH, Options{Validate: true})
			if errH != nil {
				t.Fatalf("sharded n=%d shards=%d: %v", n, shards, errH)
			}
			if !reflect.DeepEqual(mS, mH) {
				t.Errorf("n=%d shards=%d metrics differ:\nseq  %+v\nshard %+v", n, shards, mS, mH)
			}
			for i := range nodesS {
				if nodesS[i].best != nodesH[i].best {
					t.Errorf("n=%d shards=%d node %d state %d != %d",
						n, shards, i, nodesH[i].best, nodesS[i].best)
				}
			}
		}
	}
}

// TestShardedInboxSortedBySender checks the counting-sort mailbox property
// directly, on every engine: inboxes arrive sorted by sender id without any
// sort call.
func TestShardedInboxSortedBySender(t *testing.T) {
	const n = 40
	engs := engines()
	engs["sharded-7"] = ShardedEngine{Shards: 7}
	for name, eng := range engs {
		t.Run(name, func(t *testing.T) {
			nw := NewNetwork()
			check := &orderCheckNode{}
			hub := nw.AddNode(check)
			for i := 1; i < n; i++ {
				id := nw.AddNode(&pingNode{peer: hub})
				nw.MustConnect(hub, id)
			}
			if _, err := eng.Run(nw, Options{Validate: true}); err != nil {
				t.Fatalf("Run: %v", err)
			}
			if check.received != n-1 {
				t.Fatalf("hub received %d messages, want %d", check.received, n-1)
			}
			if check.unsorted {
				t.Error("inbox not strictly sorted by sender")
			}
		})
	}
}

// pingNode sends one message to its peer in round 0 and terminates.
type pingNode struct{ peer NodeID }

func (p *pingNode) Step(round int, _ []Envelope, out *Outbox) bool {
	if round == 0 {
		out.Send(p.peer, intMsg(1))
	}
	return true
}

// orderCheckNode records whether its inbox was ever out of sender order.
type orderCheckNode struct {
	received int
	unsorted bool
}

func (o *orderCheckNode) Step(round int, inbox []Envelope, _ *Outbox) bool {
	o.received += len(inbox)
	for i := 1; i < len(inbox); i++ {
		if inbox[i-1].From >= inbox[i].From {
			o.unsorted = true
		}
	}
	return round >= 1
}

// TestShardedValidationErrors mirrors the sequential engine's validation
// errors under sharded execution with multiple senders per round.
func TestShardedValidationErrors(t *testing.T) {
	nw := NewNetwork()
	a := nw.AddNode(doubleSender{peer: 1})
	b := nw.AddNode(sink{})
	nw.MustConnect(a, b)
	if _, err := (ShardedEngine{Shards: 2}).Run(nw, Options{Validate: true}); err == nil {
		t.Error("duplicate send not rejected")
	}
}

func BenchmarkShardedVsOthersSmall(b *testing.B) {
	for name, eng := range engines() {
		if name == "tcp" {
			continue // one socket per node: 2,000 nodes are not a small run
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				nw, _ := buildGossip(2000, 4000, 7, 6)
				if _, err := eng.Run(nw, Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
