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
// default): inboxes and outboxes cross the sockets as length-prefixed
// binary frames encoded by the protocol's Codec. Semantics and metrics are
// identical to SequentialEngine (the coordinator routes deterministically
// in node-id order); additionally Metrics.WireBytes reports the real bytes
// moved, which tests compare against the Bits() accounting.
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

// frame layout: u32 round | u32 count | count × (u32 peer | u32 len | bytes).
// The round field doubles as a shutdown signal (^uint32(0)).

const shutdownRound = ^uint32(0)

// Run implements Engine.
func (e NetEngine) Run(nw *Network, opts Options) (Metrics, error) {
	if e.Codec == nil {
		return Metrics{}, ErrNoCodec
	}
	maxRounds := opts.MaxRounds
	if maxRounds <= 0 {
		maxRounds = DefaultMaxRounds
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
	// Cleanup order matters on every exit path, error or not: first stop
	// listening (resets connections still sitting in the accept backlog,
	// e.g. after a handshake failure), then close every accepted connection
	// (unblocks node goroutines parked in reads or writes mid-round), and
	// only then wait for the node goroutines to drain. Waiting before
	// closing deadlocks: a node blocked on its socket never observes the
	// coordinator's exit.
	defer wg.Wait()
	defer func() {
		ln.Close()
		for _, c := range conns {
			if c != nil {
				c.Close()
			}
		}
	}()

	// Node processes: dial, send id, then serve rounds until shutdown.
	nodeErrs := make(chan error, n)
	for id := 0; id < n; id++ {
		wg.Add(1)
		go func(id int, node Node) {
			defer wg.Done()
			if err := runNodeProcess(ln.Addr().String(), id, node, e.Codec); err != nil {
				nodeErrs <- fmt.Errorf("node %d: %w", id, err)
			}
		}(id, nw.nodes[id])
	}

	// Accept and identify all connections.
	for i := 0; i < n; i++ {
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
		metrics Metrics
		inboxes = make([][]Envelope, n)
		next    = make([][]Envelope, n)
		done    = make([]bool, n)
		remain  = n
	)
	// shutdown tells still-active nodes to exit cleanly. Writes are bounded
	// by a deadline: if a node is itself wedged in a write, its receive
	// buffer may be full, and the deferred connection close — not this
	// courtesy frame — is what unblocks it.
	shutdown := func() {
		deadline := time.Now().Add(time.Second)
		for id, c := range conns {
			if c != nil && !done[id] {
				c.SetWriteDeadline(deadline)
				writeFrame(c, shutdownRound, nil, nil)
			}
		}
	}
	for round := 0; remain > 0; round++ {
		if round >= maxRounds {
			shutdown()
			return metrics, fmt.Errorf("%w: %d rounds, %d nodes still active",
				ErrRoundLimit, maxRounds, remain)
		}
		metrics.Rounds = round + 1
		// Fan out inbox frames; all active nodes compute concurrently.
		for id := 0; id < n; id++ {
			if done[id] {
				continue
			}
			// deliver appends in ascending sender order, so the inbox is
			// already sender-sorted like the other engines'.
			inbox := inboxes[id]
			inboxes[id] = nil
			wire, err := e.encodeEnvelopes(inbox)
			if err != nil {
				shutdown()
				return metrics, err
			}
			nBytes, err := writeFrame(conns[id], uint32(round), inbox, wire)
			if err != nil {
				shutdown()
				return metrics, fmt.Errorf("congest: send to node %d: %w", id, err)
			}
			metrics.WireBytes += int64(nBytes)
		}
		// Collect outboxes in id order for deterministic delivery.
		var roundMsgs int64
		for id := 0; id < n; id++ {
			if done[id] {
				continue
			}
			out, nodeDone, nBytes, err := e.readOutbox(conns[id])
			if err != nil {
				shutdown()
				return metrics, fmt.Errorf("congest: recv from node %d: %w", id, err)
			}
			metrics.WireBytes += int64(nBytes)
			if err := deliver(nw, NodeID(id), out, next, done, opts, &metrics, &roundMsgs); err != nil {
				shutdown()
				return metrics, err
			}
			if nodeDone {
				done[id] = true
				remain--
				conns[id].Close()
			}
		}
		if roundMsgs > metrics.MaxRoundMessages {
			metrics.MaxRoundMessages = roundMsgs
		}
		inboxes, next = next, inboxes
	}
	select {
	case err := <-nodeErrs:
		return metrics, err
	default:
	}
	return metrics, nil
}

// deliver validates and moves one node's outbox into the next-round
// inboxes. The coordinator calls it for every active node in ascending id
// order, so each inbox is built sorted by sender.
func deliver(nw *Network, from NodeID, out *Outbox, next [][]Envelope,
	done []bool, opts Options, metrics *Metrics, roundMsgs *int64) error {
	if opts.Validate && len(out.sends) > 1 {
		seen := make(map[NodeID]bool, len(out.sends))
		for _, s := range out.sends {
			if seen[s.From] {
				return fmt.Errorf("%w: node %d -> %d", ErrDuplicateSend, from, s.From)
			}
			seen[s.From] = true
		}
	}
	for _, s := range out.sends {
		to := s.From // Outbox.Send stores the destination in From
		if !nw.valid(to) {
			return fmt.Errorf("%w: node %d -> %d", ErrNotNeighbor, from, to)
		}
		if opts.Validate && !isNeighbor(nw, from, to) {
			return fmt.Errorf("%w: node %d -> %d", ErrNotNeighbor, from, to)
		}
		b := s.Msg.Bits()
		if opts.BitBudget > 0 && b > opts.BitBudget {
			return fmt.Errorf("%w: %d bits > budget %d (node %d -> %d, %T)",
				ErrMessageTooLarge, b, opts.BitBudget, from, to, s.Msg)
		}
		metrics.Messages++
		*roundMsgs++
		metrics.TotalBits += int64(b)
		if b > metrics.MaxMessageBits {
			metrics.MaxMessageBits = b
		}
		if done[to] {
			continue // receiver already decided; message dropped
		}
		next[to] = append(next[to], Envelope{From: from, Msg: s.Msg})
	}
	return nil
}

// encodeEnvelopes pre-encodes an inbox with the codec.
func (e NetEngine) encodeEnvelopes(inbox []Envelope) ([][]byte, error) {
	wire := make([][]byte, len(inbox))
	for i, env := range inbox {
		data, err := e.Codec.Encode(env.Msg)
		if err != nil {
			return nil, fmt.Errorf("congest: encode: %w", err)
		}
		wire[i] = data
	}
	return wire, nil
}

// writeFrame sends one round frame; envelopes and wire run in parallel.
func writeFrame(conn net.Conn, round uint32, envs []Envelope, wire [][]byte) (int, error) {
	size := 8
	for _, w := range wire {
		size += 8 + len(w)
	}
	buf := make([]byte, 0, size)
	buf = binary.BigEndian.AppendUint32(buf, round)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(wire)))
	for i, w := range wire {
		buf = binary.BigEndian.AppendUint32(buf, uint32(envs[i].From))
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(w)))
		buf = append(buf, w...)
	}
	_, err := conn.Write(buf)
	return len(buf), err
}

// readOutbox reads a node's response frame: u8 done | u32 count | entries.
func (e NetEngine) readOutbox(conn net.Conn) (*Outbox, bool, int, error) {
	var head [5]byte
	if _, err := io.ReadFull(conn, head[:]); err != nil {
		return nil, false, 0, err
	}
	total := 5
	nodeDone := head[0] == 1
	count := binary.BigEndian.Uint32(head[1:])
	out := &Outbox{}
	for i := uint32(0); i < count; i++ {
		var hdr [8]byte
		if _, err := io.ReadFull(conn, hdr[:]); err != nil {
			return nil, false, total, err
		}
		to := NodeID(binary.BigEndian.Uint32(hdr[:4]))
		ln := binary.BigEndian.Uint32(hdr[4:])
		data := make([]byte, ln)
		if _, err := io.ReadFull(conn, data); err != nil {
			return nil, false, total, err
		}
		total += 8 + int(ln)
		msg, err := e.Codec.Decode(data)
		if err != nil {
			return nil, false, total, fmt.Errorf("decode: %w", err)
		}
		out.Send(to, msg)
	}
	return out, nodeDone, total, nil
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
	for {
		var head [8]byte
		if _, err := io.ReadFull(conn, head[:]); err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) {
				return nil // coordinator shut us down
			}
			return err
		}
		round := binary.BigEndian.Uint32(head[:4])
		if round == shutdownRound {
			return nil
		}
		count := binary.BigEndian.Uint32(head[4:])
		inbox := make([]Envelope, 0, count)
		for i := uint32(0); i < count; i++ {
			var hdr [8]byte
			if _, err := io.ReadFull(conn, hdr[:]); err != nil {
				return err
			}
			from := NodeID(binary.BigEndian.Uint32(hdr[:4]))
			ln := binary.BigEndian.Uint32(hdr[4:])
			data := make([]byte, ln)
			if _, err := io.ReadFull(conn, data); err != nil {
				return err
			}
			msg, err := codec.Decode(data)
			if err != nil {
				return fmt.Errorf("decode inbox: %w", err)
			}
			inbox = append(inbox, Envelope{From: from, Msg: msg})
		}
		var out Outbox
		nodeDone := node.Step(int(round), inbox, &out)
		resp := make([]byte, 0, 5)
		if nodeDone {
			resp = append(resp, 1)
		} else {
			resp = append(resp, 0)
		}
		resp = binary.BigEndian.AppendUint32(resp, uint32(len(out.sends)))
		for _, s := range out.sends {
			data, err := codec.Encode(s.Msg)
			if err != nil {
				return fmt.Errorf("encode outbox: %w", err)
			}
			resp = binary.BigEndian.AppendUint32(resp, uint32(s.From)) // destination
			resp = binary.BigEndian.AppendUint32(resp, uint32(len(data)))
			resp = append(resp, data...)
		}
		if _, err := conn.Write(resp); err != nil {
			return err
		}
		if nodeDone {
			return nil
		}
	}
}
