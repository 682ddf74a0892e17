package cluster

import (
	"fmt"
	"net"
	"sync"
	"time"

	"distcover/internal/telemetry"
)

// This file is the transport layer both endpoints share: a frameRW is one
// logical frame stream. After the hello exchange every stream is one
// channel of a multiplexed (v3) connection; the coordinator's relay
// goroutines and the peer's partition handlers are written against
// frameRW only.

// frameRW sends and receives frames on one logical stream. Implementations
// own their deadline handling and account every frame on the telemetry
// tracer (nil tracer = disabled). Both methods are safe for the one-reader/
// one-writer discipline the protocol has per stream; sendFrame is
// additionally safe against concurrent sends on sibling streams of the
// same connection.
type frameRW interface {
	sendFrame(ft byte, payload []byte) error
	recvFrame() (byte, []byte, error)
}

// connRW is a whole connection in plain framing. Only the coordinator's
// hello exchange uses it; every later frame is multiplexed. peer is the
// telemetry label (the remote address).
type connRW struct {
	conn net.Conn
	d    time.Duration
	tr   telemetry.Tracer
	peer string
}

func (c *connRW) sendFrame(ft byte, payload []byte) error {
	if err := writeFrameTimeout(c.conn, c.d, ft, payload); err != nil {
		return err
	}
	if c.tr != nil {
		c.tr.Frame(c.peer, telemetry.DirSent, frameName(ft), frameWireBytes(len(payload)))
	}
	return nil
}

func (c *connRW) recvFrame() (byte, []byte, error) {
	ft, payload, err := readFrameTimeout(c.conn, c.d)
	if err != nil {
		return 0, nil, err
	}
	if c.tr != nil {
		c.tr.Frame(c.peer, telemetry.DirReceived, frameName(ft), frameWireBytes(len(payload)))
	}
	return ft, payload, nil
}

// muxMsg is one demultiplexed frame.
type muxMsg struct {
	ft      byte
	payload []byte
}

// muxSubDepth bounds the undrained frames per channel. The protocol is
// strictly request/response per channel, so more than a couple of frames
// backing up means the remote broke the cadence; killing the connection
// beats letting one channel absorb unbounded memory.
const muxSubDepth = 8

// mux multiplexes frame streams over one connection (protocol v3). A
// single readLoop demultiplexes incoming frames to per-channel
// subscriptions; writers from any channel serialize on wmu. The
// coordinator pre-registers its channels with channel() before starting
// readLoop; the peer instead sets onNew, which readLoop invokes for the
// first frame of an unknown channel once that channel's subscription is
// registered (without onNew, an unknown channel kills the connection).
type mux struct {
	conn net.Conn
	d    time.Duration
	tr   telemetry.Tracer
	peer string // telemetry label: "" on the peer side, the remote address on the coordinator side

	// onNew accepts a new incoming channel (peer side), typically by
	// starting its handler. It runs on the readLoop goroutine after the
	// channel's subscription is registered — so the handler's first
	// recvFrame finds it — and before the triggering frame is delivered.
	onNew func(ch uint16)

	wmu sync.Mutex // serializes writeFrameV3 across channels

	mu      sync.Mutex
	subs    map[uint16]chan muxMsg
	readErr error

	done chan struct{} // closed when readLoop exits
}

func newMux(conn net.Conn, d time.Duration, tr telemetry.Tracer, peer string) *mux {
	return &mux{
		conn: conn,
		d:    d,
		tr:   tr,
		peer: peer,
		subs: make(map[uint16]chan muxMsg),
		done: make(chan struct{}),
	}
}

// channel pre-registers stream ch and returns its frameRW view. After the
// mux has failed no subscription is created; the view's recvFrame reports
// the terminal error.
func (m *mux) channel(ch uint16) frameRW {
	m.mu.Lock()
	if m.subs != nil {
		if _, ok := m.subs[ch]; !ok {
			m.subs[ch] = make(chan muxMsg, muxSubDepth)
		}
	}
	m.mu.Unlock()
	return &muxChanRW{m: m, ch: ch}
}

// readLoop demultiplexes incoming frames until the connection fails or a
// protocol violation kills it. Every iteration re-arms the read deadline,
// so a silent remote frees this goroutine after d — under v3 the remote
// must produce a frame at least once per timeout window, which the
// per-iteration exchange cadence guarantees during a solve.
func (m *mux) readLoop() {
	defer close(m.done)
	for {
		if err := m.conn.SetReadDeadline(time.Now().Add(m.d)); err != nil {
			m.fail(err)
			return
		}
		ch, ft, payload, err := readFrameV3(m.conn)
		if err != nil {
			m.fail(err)
			return
		}
		if m.tr != nil {
			m.tr.Frame(m.peer, telemetry.DirReceived, frameName(ft), frameWireBytesV3(len(payload)))
		}
		m.mu.Lock()
		sub, ok := m.subs[ch]
		m.mu.Unlock()
		if !ok {
			if m.onNew == nil {
				m.fail(fmt.Errorf("%w: frame %s on unknown channel %d", ErrBadFrame, frameName(ft), ch))
				return
			}
			sub = make(chan muxMsg, muxSubDepth)
			m.mu.Lock()
			m.subs[ch] = sub
			m.mu.Unlock()
			m.onNew(ch)
		}
		select {
		case sub <- muxMsg{ft: ft, payload: payload}:
		default:
			m.fail(fmt.Errorf("%w: channel %d backlog exceeded %d frames", ErrBadFrame, ch, muxSubDepth))
			return
		}
	}
}

// fail records the first read error and closes every subscription,
// unblocking all channel readers. Only readLoop calls it, so it is the
// single closer of the subscription channels.
func (m *mux) fail(err error) {
	m.mu.Lock()
	if m.readErr == nil {
		m.readErr = err
	}
	for _, sub := range m.subs {
		close(sub)
	}
	m.subs = nil
	m.mu.Unlock()
}

// err returns the terminal read error, if any.
func (m *mux) err() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.readErr
}

// send writes one frame on channel ch, serialized against sibling
// channels.
func (m *mux) send(ch uint16, ft byte, payload []byte) error {
	m.wmu.Lock()
	defer m.wmu.Unlock()
	if err := m.conn.SetWriteDeadline(time.Now().Add(m.d)); err != nil {
		return err
	}
	if err := writeFrameV3(m.conn, ch, ft, payload); err != nil {
		return err
	}
	if m.tr != nil {
		m.tr.Frame(m.peer, telemetry.DirSent, frameName(ft), frameWireBytesV3(len(payload)))
	}
	return nil
}

// muxChanRW is one channel's frameRW view of a mux.
type muxChanRW struct {
	m  *mux
	ch uint16
}

func (c *muxChanRW) sendFrame(ft byte, payload []byte) error {
	return c.m.send(c.ch, ft, payload)
}

func (c *muxChanRW) recvFrame() (byte, []byte, error) {
	c.m.mu.Lock()
	sub, ok := c.m.subs[c.ch]
	readErr := c.m.readErr
	c.m.mu.Unlock()
	if !ok {
		if readErr == nil {
			readErr = net.ErrClosed
		}
		return 0, nil, readErr
	}
	timer := time.NewTimer(c.m.d)
	defer timer.Stop()
	select {
	case msg, ok := <-sub:
		if !ok {
			if err := c.m.err(); err != nil {
				return 0, nil, err
			}
			return 0, nil, net.ErrClosed
		}
		return msg.ft, msg.payload, nil
	case <-timer.C:
		return 0, nil, fmt.Errorf("cluster: channel %d read timeout after %s", c.ch, c.m.d)
	}
}
