package congest

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// Codec serializes protocol messages so transports that move real bytes
// (NetEngine) can carry them. Implementations are provided by the protocol
// packages, which know their concrete message types.
type Codec interface {
	// Encode serializes a message.
	Encode(m Message) ([]byte, error)
	// Decode parses a message previously produced by Encode.
	Decode(data []byte) (Message, error)
}

// ErrNoCodec is returned when NetEngine runs without a codec.
var ErrNoCodec = errors.New("congest: NetEngine requires a codec")

// NetEngine executes the synchronous protocol with every node as its own
// goroutine connected to a round coordinator over real TCP (loopback by
// default). The coordinator runs the shared round loop; its step writes
// every active node an inbox frame, lets all of them compute concurrently,
// and reads their outbox frames back in id order. Delivery happens in the
// round loop, as on the in-memory engines. Frames, all integers big-endian
// u32 unless marked:
//
//	coordinator → node:  round | entries   (round ^uint32(0): shut down)
//	node → coordinator:  u8 done | entries
//	entries:             count | count × (peer | len | len bytes)
//
// peer is the sender in an inbox and the destination in an outbox, and the
// bytes are the message encoded by Codec. Semantics and metrics are
// identical to the in-memory engines; additionally Metrics.WireBytes
// reports the bytes of every round frame moved, which tests compare
// against the Bits() accounting.
//
// Every node holds one TCP connection, so instance sizes are bounded by
// the file-descriptor limit; this engine exists to demonstrate the
// protocol end-to-end over a real transport, not for large benchmarks.
type NetEngine struct {
	// Codec serializes messages; required.
	Codec Codec
	// Addr is the listen address; empty means 127.0.0.1:0.
	Addr string
}

var _ Engine = NetEngine{}

const shutdownRound = ^uint32(0)

// Run implements Engine. When I/O with a node fails, the returned error
// wraps that node's own error too, if it has one (a node that cannot
// decode its inbox closes its socket, which the coordinator sees as EOF).
func (e NetEngine) Run(nw *Network, opts Options) (metrics Metrics, err error) {
	if e.Codec == nil {
		return Metrics{}, ErrNoCodec
	}
	addr := e.Addr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return Metrics{}, fmt.Errorf("congest: listen: %w", err)
	}
	n := nw.NumNodes()
	if n == 0 {
		ln.Close()
		return Metrics{}, nil
	}

	var wg sync.WaitGroup
	conns := make([]net.Conn, n)
	nodeErrs := make([]error, n) // node id's goroutine writes only nodeErrs[id]
	failed := -1                 // the node whose socket I/O failed, if any
	// Cleanup order matters on every exit path, error or not: first stop
	// listening (resets connections still sitting in the accept backlog,
	// e.g. after a handshake failure), then close every accepted connection
	// (unblocks node goroutines parked in reads or writes mid-round), and
	// only then wait for the node goroutines to drain. Waiting before
	// closing deadlocks: a node blocked on its socket never observes the
	// coordinator's exit. The node errors are read only after the wait.
	defer func() {
		ln.Close()
		for _, c := range conns {
			if c != nil {
				c.Close()
			}
		}
		wg.Wait()
		if failed >= 0 && nodeErrs[failed] != nil {
			err = fmt.Errorf("%w; %w", err, nodeErrs[failed])
		} else if err == nil {
			err = errors.Join(nodeErrs...)
		}
	}()

	// Node processes: dial, send id, then serve rounds until shutdown.
	for id := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := runNodeProcess(ln.Addr().String(), id, nw.nodes[id], e.Codec); err != nil {
				nodeErrs[id] = fmt.Errorf("node %d: %w", id, err)
			}
		}()
	}

	// Accept and identify all connections.
	for range n {
		conn, err := ln.Accept()
		if err != nil {
			return Metrics{}, fmt.Errorf("congest: accept: %w", err)
		}
		var idBuf [4]byte
		if _, err := io.ReadFull(conn, idBuf[:]); err != nil {
			conn.Close()
			return Metrics{}, fmt.Errorf("congest: handshake: %w", err)
		}
		id := int(binary.BigEndian.Uint32(idBuf[:]))
		if id < 0 || id >= n || conns[id] != nil {
			conn.Close()
			return Metrics{}, fmt.Errorf("congest: bad handshake id %d", id)
		}
		conns[id] = conn
	}

	var (
		wire int64
		buf  []byte
		out  Outbox
		outs = []*Outbox{&out}
	)
	metrics, err = runRounds(nw, opts, func(r *roundState) ([]*Outbox, error) {
		var err error
		// Fan out inbox frames; all active nodes compute concurrently.
		for id, c := range conns {
			if r.done[id] {
				continue
			}
			inbox := r.inbox(id)
			buf = binary.BigEndian.AppendUint32(buf[:0], uint32(r.round))
			buf, err = appendEntries(buf, e.Codec, len(inbox), func(i int) (NodeID, Message) {
				return inbox[i].From, inbox[i].Msg
			})
			if err != nil {
				return nil, fmt.Errorf("congest: encode: %w", err)
			}
			if _, err := c.Write(buf); err != nil {
				failed = id
				return nil, fmt.Errorf("congest: send to node %d: %w", id, err)
			}
			wire += int64(len(buf))
		}
		// Collect outboxes in id order, so the sends are in sender order.
		for id, c := range conns {
			if r.done[id] {
				continue
			}
			var head [5]byte // u8 done | u32 count
			out.from = NodeID(id)
			nBytes, err := readEntries(c, head[:], e.Codec, out.Send)
			if err != nil {
				failed = id
				return nil, fmt.Errorf("congest: recv from node %d: %w", id, err)
			}
			wire += int64(nBytes)
			r.stepDone[id] = head[0] == 1
			if r.stepDone[id] {
				c.Close() // the node goroutine has returned
			}
		}
		return outs, nil
	})
	metrics.WireBytes = wire
	if err != nil {
		// Tell still-active nodes to exit cleanly. Writes are bounded by a
		// deadline: if a node is itself wedged in a write, its receive
		// buffer may be full, and the deferred connection close — not this
		// courtesy frame — is what unblocks it.
		var bye [8]byte
		binary.BigEndian.PutUint32(bye[:4], shutdownRound)
		deadline := time.Now().Add(time.Second)
		for _, c := range conns {
			c.SetWriteDeadline(deadline)
			c.Write(bye[:])
		}
	}
	return metrics, err
}

// appendEntries appends the entries of a frame, count | count × (peer |
// len | bytes), to buf; entry(i) gives the i-th peer and message, which is
// encoded with codec.
func appendEntries(buf []byte, codec Codec, count int, entry func(int) (NodeID, Message)) ([]byte, error) {
	buf = binary.BigEndian.AppendUint32(buf, uint32(count))
	for i := range count {
		peer, m := entry(i)
		data, err := codec.Encode(m)
		if err != nil {
			return buf, err
		}
		buf = binary.BigEndian.AppendUint32(buf, uint32(peer))
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(data)))
		buf = append(buf, data...)
	}
	return buf, nil
}

// readEntries reads one frame from r: first its fixed-size head into head,
// whose last four bytes are the entry count, then the entries, passing
// each peer and decoded message to add. It returns the bytes read, which
// are 0 exactly when reading the head failed.
func readEntries(r io.Reader, head []byte, codec Codec, add func(NodeID, Message)) (int, error) {
	if _, err := io.ReadFull(r, head); err != nil {
		return 0, err
	}
	total := len(head)
	var hdr [8]byte // u32 peer | u32 len
	for count := binary.BigEndian.Uint32(head[len(head)-4:]); count > 0; count-- {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return total, err
		}
		data := make([]byte, binary.BigEndian.Uint32(hdr[4:]))
		if _, err := io.ReadFull(r, data); err != nil {
			return total, err
		}
		total += len(hdr) + len(data)
		m, err := codec.Decode(data)
		if err != nil {
			return total, fmt.Errorf("decode: %w", err)
		}
		add(NodeID(binary.BigEndian.Uint32(hdr[:4])), m)
	}
	return total, nil
}

// runNodeProcess is the per-node goroutine: it owns the Node state machine
// and talks to the coordinator purely through its TCP connection.
func runNodeProcess(addr string, id int, node Node, codec Codec) error {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	var idBuf [4]byte
	binary.BigEndian.PutUint32(idBuf[:], uint32(id))
	if _, err := conn.Write(idBuf[:]); err != nil {
		return err
	}
	var (
		head  [8]byte // u32 round | u32 count
		inbox []Envelope
		out   = Outbox{from: NodeID(id)}
		resp  []byte
	)
	addInbox := func(from NodeID, m Message) { inbox = append(inbox, Envelope{From: from, Msg: m}) }
	for {
		inbox = inbox[:0]
		if nBytes, err := readEntries(conn, head[:], codec, addInbox); err != nil {
			if nBytes == 0 && (errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed)) {
				return nil // coordinator shut us down
			}
			return fmt.Errorf("inbox: %w", err)
		}
		round := binary.BigEndian.Uint32(head[:4])
		if round == shutdownRound {
			return nil
		}
		out.reset()
		nodeDone := node.Step(int(round), inbox, &out)
		resp = append(resp[:0], 0)
		if nodeDone {
			resp[0] = 1
		}
		resp, err = appendEntries(resp, codec, len(out.sends), func(i int) (NodeID, Message) {
			return out.sends[i].to, out.sends[i].msg
		})
		if err != nil {
			return fmt.Errorf("encode outbox: %w", err)
		}
		if _, err := conn.Write(resp); err != nil {
			return err
		}
		if nodeDone {
			return nil
		}
	}
}
