package congest

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// intMsg is a test message carrying one integer.
type intMsg int64

func (m intMsg) Bits() int { return IntBits(int64(m)) }

// bigMsg reports an arbitrary size regardless of content.
type bigMsg struct{ bits int }

func (m bigMsg) Bits() int { return m.bits }

// bfsNode computes its hop distance from a root by flooding: the root sends
// 0 to all neighbors in round 0; every node forwards dist+1 the round after
// it first learns its distance, then terminates once it has heard from all
// neighbors or knows it cannot improve. Termination rule: a node terminates
// right after broadcasting its distance; the root terminates after round 0.
type bfsNode struct {
	id        NodeID
	neighbors []NodeID
	isRoot    bool
	dist      int64 // -1 until known
}

func (n *bfsNode) Step(round int, inbox []Envelope, out *Outbox) bool {
	if round == 0 && n.isRoot {
		n.dist = 0
		for _, nb := range n.neighbors {
			out.Send(nb, intMsg(1))
		}
		return true
	}
	if n.dist >= 0 {
		return true
	}
	best := int64(-1)
	for _, env := range inbox {
		d := int64(env.Msg.(intMsg))
		if best < 0 || d < best {
			best = d
		}
	}
	if best < 0 {
		return false // nothing heard yet; stay active
	}
	n.dist = best
	for _, nb := range n.neighbors {
		out.Send(nb, intMsg(best+1))
	}
	return true
}

// buildPath creates a path network v0 - v1 - ... - v_{n-1} of bfsNodes.
func buildPath(n int) (*Network, []*bfsNode) {
	nw := NewNetwork()
	nodes := make([]*bfsNode, n)
	for i := 0; i < n; i++ {
		nodes[i] = &bfsNode{id: NodeID(i), isRoot: i == 0, dist: -1}
		nw.AddNode(nodes[i])
	}
	for i := 0; i+1 < n; i++ {
		nw.MustConnect(NodeID(i), NodeID(i+1))
		nodes[i].neighbors = append(nodes[i].neighbors, NodeID(i+1))
		nodes[i+1].neighbors = append(nodes[i+1].neighbors, NodeID(i))
	}
	return nw, nodes
}

func engines() map[string]Engine {
	return map[string]Engine{
		"sequential": SequentialEngine{},
		"sharded":    ShardedEngine{},
		"sharded-3":  ShardedEngine{Shards: 3},
		"tcp":        NetEngine{Codec: testCodec{}},
	}
}

func TestBFSOnPath(t *testing.T) {
	for name, eng := range engines() {
		t.Run(name, func(t *testing.T) {
			const n = 12
			nw, nodes := buildPath(n)
			m, err := eng.Run(nw, Options{Validate: true, BitBudget: LogBudget(n)})
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			for i, node := range nodes {
				if node.dist != int64(i) {
					t.Errorf("node %d dist = %d, want %d", i, node.dist, i)
				}
			}
			// Distance i is learned in round i, broadcast terminates then;
			// the last node learns at round n-1, so rounds ≈ n.
			if m.Rounds < n-1 || m.Rounds > n+1 {
				t.Errorf("rounds = %d, want about %d", m.Rounds, n)
			}
			if m.Messages == 0 || m.TotalBits == 0 {
				t.Errorf("metrics not recorded: %+v", m)
			}
		})
	}
}

func TestEnginesAgree(t *testing.T) {
	// Random connected graphs; both engines must produce identical node
	// states and metrics.
	prop := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%20) + 2
		rng := rand.New(rand.NewSource(seed))
		type edge struct{ a, b int }
		var links []edge
		for i := 1; i < n; i++ {
			links = append(links, edge{rng.Intn(i), i}) // random tree
		}
		for k := 0; k < n/2; k++ { // extra random links
			a, b := rng.Intn(n), rng.Intn(n)
			if a != b {
				links = append(links, edge{a, b})
			}
		}
		build := func() (*Network, []*bfsNode) {
			nw := NewNetwork()
			nodes := make([]*bfsNode, n)
			for i := 0; i < n; i++ {
				nodes[i] = &bfsNode{id: NodeID(i), isRoot: i == 0, dist: -1}
				nw.AddNode(nodes[i])
			}
			for _, l := range links {
				if err := nw.Connect(NodeID(l.a), NodeID(l.b)); err != nil {
					continue // duplicate extra link; skip in both builds
				}
				nodes[l.a].neighbors = append(nodes[l.a].neighbors, NodeID(l.b))
				nodes[l.b].neighbors = append(nodes[l.b].neighbors, NodeID(l.a))
			}
			return nw, nodes
		}
		nwS, nodesS := build()
		mS, errS := SequentialEngine{}.Run(nwS, Options{Validate: true})
		for name, eng := range engines() {
			if name == "sequential" {
				continue
			}
			nwE, nodesE := build()
			mE, errE := eng.Run(nwE, Options{Validate: true})
			if (errS == nil) != (errE == nil) {
				return false
			}
			mE.WireBytes = 0 // only the TCP engine moves bytes
			if !reflect.DeepEqual(mS, mE) {
				return false
			}
			for i := range nodesS {
				if nodesS[i].dist != nodesE[i].dist {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// stubborn never terminates and sends nothing.
type stubborn struct{}

func (stubborn) Step(int, []Envelope, *Outbox) bool { return false }

func TestRoundLimit(t *testing.T) {
	for name, eng := range engines() {
		t.Run(name, func(t *testing.T) {
			nw := NewNetwork()
			nw.AddNode(stubborn{})
			_, err := eng.Run(nw, Options{MaxRounds: 10})
			if !errors.Is(err, ErrRoundLimit) {
				t.Errorf("err = %v, want ErrRoundLimit", err)
			}
		})
	}
}

// shouter sends an oversized message to its single neighbor in round 0.
type shouter struct {
	peer NodeID
	bits int
}

func (s shouter) Step(round int, _ []Envelope, out *Outbox) bool {
	if round == 0 {
		out.Send(s.peer, bigMsg{bits: s.bits})
	}
	return true
}

// sink absorbs one round of messages then terminates.
type sink struct{}

func (sink) Step(round int, _ []Envelope, _ *Outbox) bool { return round >= 1 }

func TestBitBudgetEnforced(t *testing.T) {
	for name, eng := range engines() {
		t.Run(name, func(t *testing.T) {
			nw := NewNetwork()
			a := nw.AddNode(shouter{peer: 1, bits: 10_000})
			b := nw.AddNode(sink{})
			nw.MustConnect(a, b)
			_, err := eng.Run(nw, Options{BitBudget: 64})
			if !errors.Is(err, ErrMessageTooLarge) {
				t.Errorf("err = %v, want ErrMessageTooLarge", err)
			}
			// Without a budget the same run succeeds and records the size.
			nw2 := NewNetwork()
			a2 := nw2.AddNode(shouter{peer: 1, bits: 10_000})
			b2 := nw2.AddNode(sink{})
			nw2.MustConnect(a2, b2)
			m, err := eng.Run(nw2, Options{})
			if err != nil {
				t.Fatalf("unbudgeted run: %v", err)
			}
			if m.MaxMessageBits != 10_000 {
				t.Errorf("MaxMessageBits = %d, want 10000", m.MaxMessageBits)
			}
		})
	}
}

func TestNonNeighborSendRejected(t *testing.T) {
	for name, eng := range engines() {
		t.Run(name, func(t *testing.T) {
			nw := NewNetwork()
			nw.AddNode(shouter{peer: 1, bits: 1}) // no link to node 1
			nw.AddNode(sink{})
			_, err := eng.Run(nw, Options{Validate: true})
			if !errors.Is(err, ErrNotNeighbor) {
				t.Errorf("err = %v, want ErrNotNeighbor", err)
			}
		})
	}
}

// doubleSender sends twice on the same link in round 0.
type doubleSender struct{ peer NodeID }

func (d doubleSender) Step(round int, _ []Envelope, out *Outbox) bool {
	if round == 0 {
		out.Send(d.peer, intMsg(1))
		out.Send(d.peer, intMsg(2))
	}
	return true
}

func TestDuplicateSendRejected(t *testing.T) {
	for name, eng := range engines() {
		t.Run(name, func(t *testing.T) {
			nw := NewNetwork()
			a := nw.AddNode(doubleSender{peer: 1})
			b := nw.AddNode(sink{})
			nw.MustConnect(a, b)
			_, err := eng.Run(nw, Options{Validate: true})
			if !errors.Is(err, ErrDuplicateSend) {
				t.Errorf("err = %v, want ErrDuplicateSend", err)
			}
		})
	}
}

func TestSendOutOfRangeRejectedEvenWithoutValidate(t *testing.T) {
	for name, eng := range engines() {
		t.Run(name, func(t *testing.T) {
			nw := NewNetwork()
			nw.AddNode(shouter{peer: 99, bits: 1})
			_, err := eng.Run(nw, Options{})
			if !errors.Is(err, ErrNotNeighbor) {
				t.Errorf("err = %v, want ErrNotNeighbor", err)
			}
		})
	}
}

func TestNetworkTopologyErrors(t *testing.T) {
	nw := NewNetwork()
	a := nw.AddNode(sink{})
	b := nw.AddNode(sink{})
	if err := nw.Connect(a, a); err == nil {
		t.Error("self-link accepted")
	}
	if err := nw.Connect(a, 99); err == nil {
		t.Error("dangling link accepted")
	}
	if err := nw.Connect(a, b); err != nil {
		t.Errorf("valid link rejected: %v", err)
	}
	if err := nw.Connect(b, a); err == nil {
		t.Error("duplicate link accepted")
	}
	if nw.NumLinks() != 1 || nw.NumNodes() != 2 {
		t.Errorf("topology = (%d nodes, %d links), want (2,1)", nw.NumNodes(), nw.NumLinks())
	}
	if got := nw.Neighbors(a); len(got) != 1 || got[0] != b {
		t.Errorf("Neighbors(a) = %v, want [b]", got)
	}
}

func TestEmptyNetworkTerminatesImmediately(t *testing.T) {
	for name, eng := range engines() {
		t.Run(name, func(t *testing.T) {
			m, err := eng.Run(NewNetwork(), Options{})
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if m.Rounds != 0 || m.Messages != 0 {
				t.Errorf("metrics = %+v, want zero", m)
			}
		})
	}
}

func TestLogBudget(t *testing.T) {
	tests := []struct {
		n    int
		want int
	}{
		{0, 8 * 2}, // len(2) = 2
		{2, 8 * 3}, // len(4) = 3
		{1000, 8 * 10},
		{-5, 8 * 2}, // clamped
	}
	for _, tt := range tests {
		if got := LogBudget(tt.n); got != tt.want {
			t.Errorf("LogBudget(%d) = %d, want %d", tt.n, got, tt.want)
		}
	}
}

func TestIntBits(t *testing.T) {
	tests := []struct {
		v    int64
		want int
	}{
		{0, 1},
		{1, 2},
		{-1, 2},
		{255, 9},
		{1 << 40, 42},
	}
	for _, tt := range tests {
		if got := IntBits(tt.v); got != tt.want {
			t.Errorf("IntBits(%d) = %d, want %d", tt.v, got, tt.want)
		}
	}
}

func TestMetricsString(t *testing.T) {
	m := Metrics{Rounds: 3, Messages: 10, TotalBits: 100, MaxMessageBits: 12}
	if s := m.String(); s == "" {
		t.Error("empty Metrics.String()")
	}
}
