// Package congest simulates the synchronous CONGEST message-passing model:
// computation proceeds in rounds, in every round each node may send one
// message per incident link, and message sizes are bounded by O(log n) bits.
//
// Every engine runs the same round loop (runRounds in round.go), which
// enforces the round limit, the Validate checks and the bit budget, keeps
// the Metrics, delivers the messages and commits termination. An engine
// supplies only the step that runs every active node once per round:
//
//   - SequentialEngine steps the nodes one at a time in id order; it is
//     simple, fully reproducible and the reference implementation the
//     differential tests compare every other engine against.
//   - ShardedEngine steps contiguous node shards on a fixed worker pool; it
//     is the engine for large instances (millions of nodes) and produces
//     bit-identical results.
//   - NetEngine (netengine.go) runs every node as its own goroutine behind
//     a real TCP loopback socket and moves inboxes and outboxes as encoded
//     frames, for end-to-end demonstrations.
//
// All engines account rounds, message counts and message bits, and can
// enforce the CONGEST bit budget, rejecting protocols that cheat.
package congest

import (
	"errors"
	"fmt"
	"math/bits"
)

// NodeID identifies a node in a Network. Nodes are numbered 0..n-1.
type NodeID int

// Message is a payload sent along one link in one round. Implementations
// report their encoded size in bits so the engine can enforce the CONGEST
// budget. Messages must be immutable after sending: the sharded engine
// delivers them to a node stepped by another worker goroutine.
type Message interface {
	// Bits returns the number of bits a real implementation would need to
	// encode this message. Used for CONGEST accounting and enforcement.
	Bits() int
}

// Envelope pairs a received message with its sender.
type Envelope struct {
	From NodeID
	Msg  Message
}

// Outbox collects the messages a node sends in one round. The engine names
// the node it is about to step on the Outbox, so every send records its
// sender; one Outbox may collect the sends of many nodes in turn. A node
// may send at most one message per neighbor per round; violations are
// reported when the round loop validates the round.
type Outbox struct {
	from  NodeID // the node being stepped
	sends []send
}

// send is one queued message with both endpoints.
type send struct {
	from, to NodeID
	msg      Message
}

// Send queues a message for delivery to the given neighbor at the start of
// the next round.
func (o *Outbox) Send(to NodeID, m Message) {
	o.sends = append(o.sends, send{from: o.from, to: to, msg: m})
}

// reset empties the outbox, dropping its Message references, for reuse.
func (o *Outbox) reset() {
	clear(o.sends)
	o.sends = o.sends[:0]
}

// Node is a synchronous state machine. The engine calls Step once per round
// with the messages received (sent to this node in the previous round) and
// an outbox for this round's sends. Round 0 has an empty inbox. Every engine
// delivers the inbox sorted by ascending sender id — protocol nodes may (and
// the ones in internal/core do) rely on that order. The inbox slice is only
// valid for the duration of Step: every engine reuses its backing storage
// (the round loop's shared envelope arena, or a node goroutine's buffer on
// NetEngine) for later rounds, so nodes must copy anything they keep. The
// outbox is likewise only valid during Step.
//
// A node signals local termination by returning done = true; a done node is
// never stepped again and messages sent to it are dropped (it has already
// decided its output). Step must only access the node's own state: the
// sharded engine calls Step on nodes of different shards concurrently.
type Node interface {
	Step(round int, inbox []Envelope, out *Outbox) (done bool)
}

// Network is a fixed communication topology over a set of nodes.
type Network struct {
	nodes []Node
	adj   [][]NodeID
	edges int
}

// NewNetwork creates an empty network.
func NewNetwork() *Network { return &Network{} }

// AddNode registers a node and returns its id.
func (nw *Network) AddNode(n Node) NodeID {
	nw.nodes = append(nw.nodes, n)
	nw.adj = append(nw.adj, nil)
	return NodeID(len(nw.nodes) - 1)
}

// Connect adds an undirected link between a and b. Self-links and duplicate
// links are rejected.
func (nw *Network) Connect(a, b NodeID) error {
	if a == b {
		return fmt.Errorf("congest: self-link at node %d", a)
	}
	if !nw.valid(a) || !nw.valid(b) {
		return fmt.Errorf("congest: link (%d,%d) references unknown node", a, b)
	}
	for _, x := range nw.adj[a] {
		if x == b {
			return fmt.Errorf("congest: duplicate link (%d,%d)", a, b)
		}
	}
	nw.adj[a] = append(nw.adj[a], b)
	nw.adj[b] = append(nw.adj[b], a)
	nw.edges++
	return nil
}

// MustConnect is Connect but panics on error; for statically valid topologies.
func (nw *Network) MustConnect(a, b NodeID) {
	if err := nw.Connect(a, b); err != nil {
		panic(err)
	}
}

// Reserve pre-sizes node v's adjacency list to hold at least extra further
// links, so builders that know degrees up front avoid repeated slice growth
// on large networks. It never shrinks and ignores invalid ids.
func (nw *Network) Reserve(v NodeID, extra int) {
	if !nw.valid(v) || extra <= 0 {
		return
	}
	adj := nw.adj[v]
	if cap(adj)-len(adj) >= extra {
		return
	}
	grown := make([]NodeID, len(adj), len(adj)+extra)
	copy(grown, adj)
	nw.adj[v] = grown
}

// ConnectTrusted is Connect without the validity and duplicate-link checks:
// the caller guarantees a != b, both ids exist, and the link is not already
// present. Builders that construct topologies from already-validated data
// (core.BuildNetwork over a Builder-checked hypergraph) use it because
// Connect's O(deg) duplicate scan turns hub vertices quadratic.
func (nw *Network) ConnectTrusted(a, b NodeID) {
	nw.adj[a] = append(nw.adj[a], b)
	nw.adj[b] = append(nw.adj[b], a)
	nw.edges++
}

// NumNodes returns the number of nodes.
func (nw *Network) NumNodes() int { return len(nw.nodes) }

// NumLinks returns the number of undirected links.
func (nw *Network) NumLinks() int { return nw.edges }

// Neighbors returns the neighbor list of v (shared storage; do not modify).
func (nw *Network) Neighbors(v NodeID) []NodeID { return nw.adj[v] }

// Node returns the node registered under id.
func (nw *Network) Node(id NodeID) Node { return nw.nodes[id] }

func (nw *Network) valid(v NodeID) bool { return v >= 0 && int(v) < len(nw.nodes) }

// Errors returned by engines.
var (
	// ErrRoundLimit indicates the protocol did not terminate within the
	// configured maximum number of rounds.
	ErrRoundLimit = errors.New("congest: round limit exceeded")
	// ErrMessageTooLarge indicates a message exceeding the CONGEST budget.
	ErrMessageTooLarge = errors.New("congest: message exceeds bit budget")
	// ErrNotNeighbor indicates a send to a non-adjacent node.
	ErrNotNeighbor = errors.New("congest: send to non-neighbor")
	// ErrDuplicateSend indicates two messages on one link in one round.
	ErrDuplicateSend = errors.New("congest: multiple messages on one link in one round")
)

// Options configures an engine run.
type Options struct {
	// MaxRounds caps the execution; ≤ 0 means DefaultMaxRounds.
	MaxRounds int
	// BitBudget is the per-message size bound in bits; ≤ 0 disables
	// enforcement (sizes are still recorded in Metrics).
	BitBudget int
	// Validate enables per-send topology checks (neighbor, one per link).
	// The checks are O(deg) per node per round; disable for large benches.
	Validate bool
}

// DefaultMaxRounds bounds runs when Options.MaxRounds is unset.
const DefaultMaxRounds = 1 << 20

// Metrics aggregates what a run cost in the CONGEST model.
type Metrics struct {
	// Rounds is the number of rounds executed until global termination.
	Rounds int
	// Messages is the total number of messages delivered.
	Messages int64
	// TotalBits is the sum of message sizes.
	TotalBits int64
	// MaxMessageBits is the largest single message observed.
	MaxMessageBits int
	// MaxRoundMessages is the largest number of messages in one round.
	MaxRoundMessages int64
	// WireBytes counts the real bytes moved by transports that serialize
	// messages (NetEngine); 0 for the in-memory engines.
	WireBytes int64
}

func (m Metrics) String() string {
	return fmt.Sprintf("rounds=%d msgs=%d bits=%d maxMsgBits=%d",
		m.Rounds, m.Messages, m.TotalBits, m.MaxMessageBits)
}

// Engine executes a network to quiescence.
type Engine interface {
	// Run steps all nodes until every node is done, returning metrics.
	Run(nw *Network, opts Options) (Metrics, error)
}

// LogBudget returns a standard CONGEST bit budget c·⌈log2(n+2)⌉ for an
// n-node network, with c = 8 covering the constant number of O(log n)-bit
// fields the protocols in this repository send per message.
func LogBudget(n int) int {
	if n < 0 {
		n = 0
	}
	return 8 * bits.Len(uint(n+2))
}

// IntBits returns the number of bits needed to transmit v (magnitude plus
// sign bit), used by protocol messages to implement Message.Bits.
func IntBits(v int64) int {
	if v < 0 {
		v = -v
	}
	return bits.Len64(uint64(v)) + 1
}
