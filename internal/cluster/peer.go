package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"sync"
	"syscall"
	"time"

	"distcover/internal/core"
	"distcover/internal/hypergraph"
	"distcover/internal/telemetry"
)

// Peer serves partitions of cluster solves. A coverd process in peer mode
// runs one Peer next to its HTTP listener; each incoming connection carries
// one solve's partitions assigned to this process, one multiplexed channel
// per partition (setup, the per-iteration boundary/coverage exchange,
// result), or one invalidation. Peers keep no solve state between
// connections — a restarted peer serves the next solve as if nothing
// happened, which is what makes coordinator-side retry after ErrPeerLost
// sound.
type Peer struct {
	// Timeout bounds every read on a peer connection (0 = DefaultTimeout).
	// It is the self-defense against a wedged coordinator: a peer parked in
	// an exchange read frees its goroutine when the deadline fires.
	Timeout time.Duration
	// Logger, when set, receives structured per-connection diagnostics and
	// partition-solve progress lines (nil = silent). Solve lines carry the
	// trace_id propagated in the hello/setup frames and the peer_addr this
	// peer serves on, so one cluster solve is correlated across the
	// coordinator's and every peer's logs.
	Logger *slog.Logger
	// Tracer, when set, receives the partition runner's phase timings and
	// this peer's frame accounting for every connection served (coverd
	// wires its Prometheus adapter here). If it additionally implements
	// telemetry.CacheTracer it receives one instance-cache hit/miss hook
	// per setup handshake. nil = disabled, zero overhead.
	Tracer telemetry.Tracer
	// InstanceCacheBudget bounds the decoded bytes the content-addressed
	// instance cache retains (0 = DefaultInstanceCacheBudget). Must be set
	// before the first connection is served.
	InstanceCacheBudget int64

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup
	closed bool

	cacheOnce sync.Once
	cache     *instanceCache
}

// NewPeer returns a Peer ready to Serve.
func NewPeer() *Peer {
	return &Peer{conns: make(map[net.Conn]struct{})}
}

// instances returns the peer's content-addressed instance cache, created
// lazily so InstanceCacheBudget can be set after NewPeer.
func (p *Peer) instances() *instanceCache {
	p.cacheOnce.Do(func() { p.cache = newInstanceCache(p.InstanceCacheBudget) })
	return p.cache
}

// InstanceCacheStats reports the current entry count and retained decoded
// bytes of the peer's instance cache (both zero before the first setup).
func (p *Peer) InstanceCacheStats() (entries int, bytes int64) {
	return p.instances().stats()
}

// ErrPeerClosed is returned by Serve after Close.
var ErrPeerClosed = errors.New("cluster: peer closed")

// Serve accepts and handles connections on ln until Close. It always
// returns a non-nil error, ErrPeerClosed after a clean shutdown.
func (p *Peer) Serve(ln net.Listener) error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		ln.Close()
		return ErrPeerClosed
	}
	p.ln = ln
	p.mu.Unlock()
	// Transient accept failures (fd exhaustion, aborted handshakes) retry
	// with the net/http backoff ladder instead of taking the listener down.
	var backoff time.Duration
	for {
		conn, err := ln.Accept()
		if err != nil {
			p.mu.Lock()
			closed := p.closed
			p.mu.Unlock()
			if closed {
				return ErrPeerClosed
			}
			if isTemporaryAcceptErr(err) {
				if backoff == 0 {
					backoff = 5 * time.Millisecond
				} else if backoff *= 2; backoff > time.Second {
					backoff = time.Second
				}
				p.logWarn("cluster peer: accept retry", "err", err, "backoff", backoff)
				time.Sleep(backoff)
				continue
			}
			return err
		}
		backoff = 0
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			conn.Close()
			return ErrPeerClosed
		}
		p.conns[conn] = struct{}{}
		p.wg.Add(1)
		p.mu.Unlock()
		go func() {
			defer p.wg.Done()
			defer func() {
				p.mu.Lock()
				delete(p.conns, conn)
				p.mu.Unlock()
				conn.Close()
			}()
			if err := p.handle(conn); err != nil {
				p.logWarn("cluster peer: connection failed",
					"remote", conn.RemoteAddr().String(), "err", err)
			}
		}()
	}
}

// Close stops the listener, closes every active connection (unblocking
// handlers parked in reads) and waits for the handlers to drain.
func (p *Peer) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	ln := p.ln
	for conn := range p.conns {
		conn.Close()
	}
	p.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	p.wg.Wait()
	return err
}

func (p *Peer) logInfo(msg string, args ...any) {
	if p.Logger != nil {
		p.Logger.Info(msg, args...)
	}
}

func (p *Peer) logWarn(msg string, args ...any) {
	if p.Logger != nil {
		p.Logger.Warn(msg, args...)
	}
}

func (p *Peer) timeout() time.Duration {
	if p.Timeout > 0 {
		return p.Timeout
	}
	return DefaultTimeout
}

// handle runs one connection: the hello exchange in plain framing, then
// the multiplexed streams. A coordinator whose hello announces less than
// protocol v3 gets an error frame in place of the hello reply, and the
// connection closes. Solver-level failures are reported to the
// coordinator as an error frame; transport failures just drop the
// connection (the coordinator sees them as ErrPeerLost).
func (p *Peer) handle(conn net.Conn) error {
	d := p.timeout()
	hello, err := expectHello(conn, d)
	if err != nil {
		return err
	}
	if err := requireV3(hello); err != nil {
		if werr := writeJSONFrameTimeout(conn, d, ftError, errorFrame{Message: err.Error()}); werr != nil {
			return werr
		}
		return err
	}
	// Echo the coordinator's trace id in the reply so either side's log
	// carries it from the handshake on.
	if err := writeJSONFrameTimeout(conn, d, ftHello, makeHello(hello.TraceID)); err != nil {
		return err
	}
	return p.serveMux(conn, hello)
}

// serveMux demultiplexes one connection: the read loop runs on this
// goroutine and spawns one handleStream goroutine per incoming channel
// (its first frame must open a setup or invalidate conversation). The
// connection is done when the read loop exits — coordinator closed it, a
// deadline fired, or a protocol violation killed it — at which point every
// stream's subscription is closed, the handlers drain, and serveMux
// returns. A clean end-of-connection is not an error.
func (p *Peer) serveMux(conn net.Conn, hello helloFrame) error {
	m := newMux(conn, p.timeout(), p.Tracer, "")
	peerAddr := conn.LocalAddr().String()
	var wg sync.WaitGroup
	m.onNew = func(ch uint16) {
		rw := &muxChanRW{m: m, ch: ch}
		wg.Add(1)
		go func() {
			defer wg.Done()
			ft, payload, err := rw.recvFrame()
			if err != nil {
				return // connection already torn down
			}
			if err := p.handleStream(rw, peerAddr, hello, ft, payload); err != nil {
				p.logWarn("cluster peer: channel failed",
					"remote", conn.RemoteAddr().String(), "channel", ch, "err", err)
			}
		}()
	}
	m.readLoop()
	wg.Wait()
	if err := m.err(); err != nil && !isTransportErr(err) && !errors.Is(err, io.EOF) {
		return err
	}
	return nil
}

// handleStream runs one stream's conversation: an invalidation round trip,
// or the content-addressed setup (hash lookup, hashok/hashmiss answer,
// ftInstance re-sync on a miss) followed by the partitioned solve with the
// stream as the Exchanger and the result frame.
func (p *Peer) handleStream(rw frameRW, peerAddr string, hello helloFrame, ft byte, payload []byte) error {
	if ft == ftInvalidate {
		hash := string(payload)
		dropped := p.instances().invalidate(hash)
		p.logInfo("cluster peer: instance invalidated", "trace_id", hello.TraceID,
			"peer_addr", peerAddr, "hash", hash, "dropped", dropped)
		return rw.sendFrame(ftHashOK, []byte(hash))
	}
	if ft != ftSetup {
		return fmt.Errorf("%w: expected setup, got type %d", ErrBadFrame, ft)
	}
	var setup setupFrame
	if err := json.Unmarshal(payload, &setup); err != nil {
		return fmt.Errorf("%w: setup: %v", ErrBadFrame, err)
	}
	traceID := setup.TraceID
	if traceID == "" {
		traceID = hello.TraceID
	}
	g, hit, err := p.resolveInstance(rw, setup.Hash)
	if err != nil {
		return err
	}
	start := time.Now()
	p.logInfo("cluster peer: partition start", "trace_id", traceID,
		"peer_addr", peerAddr, "part", setup.Part, "hash", setup.Hash, "cache_hit", hit,
		"vertices", g.NumVertices(), "edges", g.NumEdges())
	opts := setup.Options.coreOptions()
	if p.Tracer != nil {
		opts.Tracer = p.Tracer
	}
	ex := &rwExchanger{rw: rw}
	partial, err := core.RunPartition(g, opts, setup.Carry, setup.Bounds, setup.Part, ex)
	if err != nil {
		p.logWarn("cluster peer: partition failed", "trace_id", traceID,
			"peer_addr", peerAddr, "part", setup.Part,
			"elapsed", time.Since(start), "err", err)
		if isTransportErr(err) {
			return err
		}
		return sendError(rw, err)
	}
	p.logInfo("cluster peer: partition done", "trace_id", traceID,
		"peer_addr", peerAddr, "part", setup.Part,
		"iterations", partial.Iterations, "elapsed", time.Since(start))
	return sendJSONFrame(rw, ftResult, partialToFrame(partial))
}

// resolveInstance turns a setup frame's content hash into a decoded
// instance: a cache hit answers ftHashOK and reuses the shared decoded
// graph; a miss answers ftHashMiss, reads the ftInstance re-sync frame,
// verifies the decoded instance really hashes to the requested key (a
// poisoned entry would corrupt every later solve that hits it) and caches
// it. The hit/miss is reported through the optional CacheTracer hook.
func (p *Peer) resolveInstance(rw frameRW, hash string) (*hypergraph.Hypergraph, bool, error) {
	if hash == "" {
		return nil, false, fmt.Errorf("%w: setup without instance hash", ErrBadFrame)
	}
	cache := p.instances()
	if g, ok := cache.get(hash); ok {
		p.traceCache(true, g.MemoryBytes())
		if err := rw.sendFrame(ftHashOK, []byte(hash)); err != nil {
			return nil, false, err
		}
		return g, true, nil
	}
	if err := rw.sendFrame(ftHashMiss, []byte(hash)); err != nil {
		return nil, false, err
	}
	ft, payload, err := rw.recvFrame()
	if err != nil {
		return nil, false, err
	}
	if ft != ftInstance {
		return nil, false, fmt.Errorf("%w: expected instance after miss, got type %d", ErrBadFrame, ft)
	}
	g := new(hypergraph.Hypergraph)
	if err := g.UnmarshalJSON(payload); err != nil {
		return nil, false, sendError(rw, fmt.Errorf("decode instance: %w", err))
	}
	if got := g.Hash(); got != hash {
		return nil, false, sendError(rw,
			fmt.Errorf("instance hash mismatch: setup %s, content %s", hash, got))
	}
	p.traceCache(false, g.MemoryBytes())
	cache.put(hash, g)
	return g, false, nil
}

// traceCache forwards one instance-cache lookup to the optional
// CacheTracer extension of the peer's tracer.
func (p *Peer) traceCache(hit bool, bytes int64) {
	if ct, ok := p.Tracer.(telemetry.CacheTracer); ok {
		ct.InstanceCache(hit, int(bytes))
	}
}

// sendError reports a solver-level failure as a frame; the original error
// is returned for the peer's log.
func sendError(rw frameRW, cause error) error {
	if err := sendJSONFrame(rw, ftError, errorFrame{Message: cause.Error()}); err != nil {
		return err
	}
	return cause
}

// isTransportErr distinguishes connection failures (no point writing an
// error frame) from solver-level failures (worth reporting upstream).
func isTransportErr(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) || errors.Is(err, net.ErrClosed)
}

// isTemporaryAcceptErr reports whether an Accept error is worth retrying:
// resource exhaustion (EMFILE/ENFILE/ENOBUFS/ENOMEM) and connections that
// aborted inside the kernel backlog. The deprecated net.Error.Temporary is
// deliberately not consulted; this is the explicit list net/http's accept
// loop effectively survives.
func isTemporaryAcceptErr(err error) bool {
	return errors.Is(err, syscall.EMFILE) || errors.Is(err, syscall.ENFILE) ||
		errors.Is(err, syscall.ENOBUFS) || errors.Is(err, syscall.ENOMEM) ||
		errors.Is(err, syscall.ECONNABORTED)
}

func expectHello(conn net.Conn, d time.Duration) (helloFrame, error) {
	ft, payload, err := readFrameTimeout(conn, d)
	if err != nil {
		return helloFrame{}, err
	}
	if ft != ftHello {
		return helloFrame{}, fmt.Errorf("%w: expected hello, got type %d", ErrBadFrame, ft)
	}
	return parseHello(payload)
}

// parseHello unmarshals and validates a hello payload.
func parseHello(payload []byte) (helloFrame, error) {
	var h helloFrame
	if err := json.Unmarshal(payload, &h); err != nil {
		return helloFrame{}, fmt.Errorf("%w: hello: %v", ErrBadFrame, err)
	}
	if h.Magic != protoMagic || h.Version != protoVersion {
		return helloFrame{}, fmt.Errorf("%w: hello %q v%d (want %q v%d)", ErrBadFrame, h.Magic, h.Version, protoMagic, protoVersion)
	}
	return h, nil
}

// readFrameTimeout reads one frame under a deadline.
func readFrameTimeout(conn net.Conn, d time.Duration) (byte, []byte, error) {
	if err := conn.SetReadDeadline(time.Now().Add(d)); err != nil {
		return 0, nil, err
	}
	return readFrame(conn)
}

// writeFrameTimeout writes one frame under a deadline: without it, a peer
// (or coordinator) that stops reading would park the writer forever once
// the TCP send buffer fills — the setup frame in particular carries the
// whole instance. Deadline write failures surface like any other transport
// error (ErrPeerLost on the coordinator side).
func writeFrameTimeout(conn net.Conn, d time.Duration, ft byte, payload []byte) error {
	if err := conn.SetWriteDeadline(time.Now().Add(d)); err != nil {
		return err
	}
	return writeFrame(conn, ft, payload)
}

// writeJSONFrameTimeout is writeJSONFrame under a write deadline.
func writeJSONFrameTimeout(conn net.Conn, d time.Duration, ft byte, v any) error {
	if err := conn.SetWriteDeadline(time.Now().Add(d)); err != nil {
		return err
	}
	return writeJSONFrame(conn, ft, v)
}

// rwExchanger implements core.Exchanger over the peer's coordinator-facing
// stream: it publishes the local frame and blocks for the combined one.
// Frame accounting lives in the stream implementation.
type rwExchanger struct {
	rw  frameRW
	buf []byte
}

func (e *rwExchanger) ExchangeBoundary(iteration int, local core.BoundaryFrame) ([]core.BoundaryFrame, error) {
	e.buf = encodeBoundary(e.buf, iteration, local)
	if err := e.rw.sendFrame(ftBoundary, e.buf); err != nil {
		return nil, err
	}
	ft, payload, err := e.rw.recvFrame()
	if err != nil {
		return nil, err
	}
	if ft != ftAllB {
		return nil, fmt.Errorf("%w: expected combined boundary, got type %d", ErrBadFrame, ft)
	}
	it, frames, err := decodeCombinedBoundary(payload)
	if err != nil {
		return nil, err
	}
	if it != iteration {
		return nil, fmt.Errorf("%w: combined boundary for iteration %d during %d", ErrBadFrame, it, iteration)
	}
	return frames, nil
}

func (e *rwExchanger) ExchangeCoverage(iteration, covered int) (int, error) {
	e.buf = encodeCoverage(e.buf, iteration, covered)
	if err := e.rw.sendFrame(ftCoverage, e.buf); err != nil {
		return 0, err
	}
	ft, payload, err := e.rw.recvFrame()
	if err != nil {
		return 0, err
	}
	if ft != ftAllC {
		return 0, fmt.Errorf("%w: expected combined coverage, got type %d", ErrBadFrame, ft)
	}
	it, total, err := decodeCoverage(payload)
	if err != nil {
		return 0, err
	}
	if it != iteration {
		return 0, fmt.Errorf("%w: combined coverage for iteration %d during %d", ErrBadFrame, it, iteration)
	}
	return total, nil
}
