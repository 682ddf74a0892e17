// Package cluster runs Algorithm MWHVC across several coverd processes: a
// coordinator partitions an instance into contiguous vertex ranges over the
// CSR layout, ships each range's share in one setup frame to a peer
// (distcover-cluster protocol over framed TCP; the partitions one peer
// process serves share a single multiplexed connection), and relays the compact
// per-iteration boundary exchange — boundary-vertex levels plus join/raise
// flags, and the global coverage count — until the cover is complete. Each
// peer executes core.RunPartition, so the merged result is bit-identical to
// a single-process core.Run on the undivided instance; the cluster
// equivalence tests enforce this at 1..4 partitions.
//
// Topology is a star: peers talk only to the coordinator, which detects a
// dead or wedged peer on the spot (connection error or deadline) and turns
// it into the typed ErrPeerLost after closing every connection, unblocking
// the surviving peers — no hang, no goroutine left behind. Peers hold no
// solve state between connections, so recovery is the coordinator's retry:
// once the lost peer is restarted (or replaced), the next solve proceeds
// from the coordinator-held session state.
//
// Since protocol v2 the setup is content-addressed (the instance fabric):
// the setup frame carries the instance's canonical hash, each peer keeps a
// byte-budgeted LRU of decoded instances keyed by that hash, and the JSON
// re-sync frame crosses the wire only for peers that answer hashmiss — so
// repeated solves, session re-pointing and post-ErrPeerLost failover ship
// a hash instead of megabytes. The cache is soft state: losing it costs
// one re-sync, never correctness.
//
// Session updates ship only the residual delta instance — the same JSON
// shape as the session delta codec — plus the carried dual loads, so the
// per-update traffic scales with the batch, not the instance.
package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"strings"
	"sync"
	"time"

	"distcover/internal/core"
	"distcover/internal/hypergraph"
	"distcover/internal/telemetry"
)

// DefaultTimeout bounds every per-connection network operation (dial, one
// frame read) when Config.Timeout is zero.
const DefaultTimeout = 60 * time.Second

// Typed coordinator errors.
var (
	// ErrNoPeers is returned when a cluster solve is attempted without
	// configured peer addresses.
	ErrNoPeers = errors.New("cluster: no peers configured")
	// ErrPeerLost indicates a peer connection failed (died, was killed, or
	// timed out) mid-solve. The coordinator's session state is unchanged;
	// the operation can be retried once the peer is back.
	ErrPeerLost = errors.New("cluster: peer lost")
	// ErrPeerFailed indicates a peer reported a solver-level failure (for
	// example an iteration-limit overrun) through the protocol.
	ErrPeerFailed = errors.New("cluster: peer failed")
)

// Config parameterizes a coordinator-side solve.
type Config struct {
	// Peers are the peer addresses. Partition p connects to
	// Peers[p mod len(Peers)], so more partitions than peers simply open
	// several connections per process.
	Peers []string
	// Partitions is the partition count; 0 means one per peer.
	Partitions int
	// Timeout bounds dial and every frame read (0 = DefaultTimeout).
	Timeout time.Duration
	// TraceID correlates this solve across coordinator and peer logs; it
	// rides in the hello and setup frames. Empty generates a fresh id.
	TraceID string
	// Logger receives structured coordinator-side log lines (nil =
	// silent). Every line carries the trace_id attr; per-peer lines also
	// carry peer_addr.
	Logger *slog.Logger
	// Tracer receives per-peer exchange latency and frame accounting
	// hooks (nil = disabled, strictly zero overhead). The fan-out relay
	// calls it from one goroutine per partition, so the tracer must be
	// safe for concurrent use (telemetry.Recorder and the Prometheus
	// adapter both are).
	Tracer telemetry.Tracer
}

func (c Config) timeout() time.Duration {
	if c.Timeout > 0 {
		return c.Timeout
	}
	return DefaultTimeout
}

// Solve runs a cluster solve of g across cfg.Peers, warm-started from the
// carried dual loads when carry is non-nil (the cluster session update
// path) and cold otherwise. It validates and partitions the solve, then
// hands it to the concurrent fan-out relay. The setup frames carry only
// the solver parameters, so trace collection, invariant checks and the
// core tracer hook of opts never reach the peers.
func Solve(g *hypergraph.Hypergraph, opts core.Options, carry []float64, cfg Config) (res *core.Result, err error) {
	if len(cfg.Peers) == 0 {
		return nil, ErrNoPeers
	}
	if opts.Exact {
		return nil, fmt.Errorf("%w: exact arithmetic is not distributable", core.ErrPartitionOptions)
	}

	parts := cfg.Partitions
	if parts <= 0 {
		parts = len(cfg.Peers)
	}
	bounds := core.PlanPartitions(g, parts)
	np := len(bounds) - 1
	if np > maxChannels {
		return nil, fmt.Errorf("%w: %d partitions exceed the %d-channel limit", core.ErrPartitionOptions, np, maxChannels)
	}

	traceID := cfg.TraceID
	if traceID == "" {
		traceID = telemetry.NewTraceID()
	}
	lg := cfg.Logger
	startT := time.Now()
	if lg != nil {
		lg.Info("cluster: solve start", "trace_id", traceID,
			"partitions", np, "peers", len(cfg.Peers),
			"vertices", g.NumVertices(), "edges", g.NumEdges(), "warm", carry != nil)
		defer func() {
			if err != nil {
				lg.Warn("cluster: solve failed", "trace_id", traceID,
					"elapsed", time.Since(startT), "err", err)
			} else {
				lg.Info("cluster: solve done", "trace_id", traceID,
					"elapsed", time.Since(startT),
					"iterations", res.Iterations, "rounds", res.Rounds)
			}
		}()
	}

	return runFanOut(g, opts, carry, cfg, bounds, traceID)
}

// sendJSONFrame marshals v and sends it as one frame of type ft on rw.
func sendJSONFrame(rw frameRW, ft byte, v any) error {
	payload, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return rw.sendFrame(ft, payload)
}

// expectFrame reads one frame from rw, translating transport failures into
// ErrPeerLost and peer-reported error frames into ErrPeerFailed; the frame
// must be one of the wanted types. It is the coordinator's single
// read-and-translate helper (the former expect/expectOneOf near-duplicate
// pair folded into one).
func expectFrame(rw frameRW, addr string, wants ...byte) ([]byte, byte, error) {
	ft, payload, err := rw.recvFrame()
	if err != nil {
		return nil, 0, lost(addr, "read", err)
	}
	if ft == ftError {
		var ef errorFrame
		if err := json.Unmarshal(payload, &ef); err != nil {
			return nil, 0, protocolErr(addr, fmt.Errorf("%w: error frame: %v", ErrBadFrame, err))
		}
		return nil, 0, fmt.Errorf("%w: %s: %s", ErrPeerFailed, addr, ef.Message)
	}
	for _, want := range wants {
		if ft == want {
			return payload, ft, nil
		}
	}
	names := make([]string, len(wants))
	for i, want := range wants {
		names[i] = frameName(want)
	}
	return nil, 0, protocolErr(addr, fmt.Errorf("%w: expected %s, got %s", ErrBadFrame, strings.Join(names, " or "), frameName(ft)))
}

// dialPeer opens one coordinator-side connection and runs the hello
// exchange in plain framing. A peer that cannot speak the multiplexed v3
// framing is refused with an error wrapping ErrBadFrame, not ErrPeerLost:
// retrying cannot help until the peer is upgraded.
func dialPeer(addr string, d time.Duration, tr telemetry.Tracer, traceID string) (net.Conn, error) {
	conn, err := net.DialTimeout("tcp", addr, d)
	if err != nil {
		return nil, lost(addr, "dial", err)
	}
	rw := &connRW{conn: conn, d: d, tr: tr, peer: addr}
	if err := sendJSONFrame(rw, ftHello, makeHello(traceID)); err != nil {
		conn.Close()
		return nil, lost(addr, "hello", err)
	}
	payload, _, err := expectFrame(rw, addr, ftHello)
	if err != nil {
		conn.Close()
		return nil, err
	}
	reply, err := parseHello(payload)
	if err == nil {
		err = requireV3(reply)
	}
	if err != nil {
		conn.Close()
		return nil, protocolErr(addr, err)
	}
	return conn, nil
}

// setupPartition runs the content-addressed setup handshake for one
// partition on rw: send the setup frame, read the hashok/hashmiss answer
// and re-sync the instance JSON on a miss. marshal returns the shared
// instance JSON (computed lazily, once per solve, however many peers
// miss). It reports whether the peer's cache held the instance.
func setupPartition(rw frameRW, addr string, sf setupFrame, marshal func() ([]byte, error)) (bool, error) {
	if err := sendJSONFrame(rw, ftSetup, sf); err != nil {
		return false, lost(addr, "setup", err)
	}
	ack, ft, err := expectFrame(rw, addr, ftHashOK, ftHashMiss)
	if err != nil {
		return false, err
	}
	if string(ack) != sf.Hash {
		return false, protocolErr(addr, fmt.Errorf("%w: hash ack %q for setup %q", ErrBadFrame, ack, sf.Hash))
	}
	if ft == ftHashOK {
		return true, nil
	}
	instJSON, err := marshal()
	if err != nil {
		return false, err
	}
	if err := rw.sendFrame(ftInstance, instJSON); err != nil {
		return false, lost(addr, "instance re-sync", err)
	}
	return false, nil
}

// instanceMarshaler returns the lazy shared-marshal closure setupPartition
// uses: the instance JSON is produced at most once per solve, on the first
// cache miss, and is safe to request from concurrent relay goroutines.
func instanceMarshaler(g *hypergraph.Hypergraph) func() ([]byte, error) {
	var (
		once sync.Once
		data []byte
		err  error
	)
	return func() ([]byte, error) {
		once.Do(func() {
			data, err = json.Marshal(g)
			if err != nil {
				err = fmt.Errorf("cluster: encode instance: %w", err)
			}
		})
		return data, err
	}
}

// Invalidate asks every peer in cfg.Peers to drop the cached instance with
// the given content hash. Content-addressed entries are immutable, so this
// is capacity and teardown management (a deleted session's base instance,
// say), never a correctness requirement — a peer that is down simply keeps
// nothing, and a peer that never cached the hash acks all the same. The
// per-peer round trips run concurrently (a fleet invalidation costs one
// timeout, not one per peer); every peer is attempted and the first error
// by peer order (if any) is returned.
func Invalidate(hash string, cfg Config) error {
	if len(cfg.Peers) == 0 {
		return ErrNoPeers
	}
	if hash == "" {
		return errors.New("cluster: invalidate: empty hash")
	}
	d := cfg.timeout()
	errs := make([]error, len(cfg.Peers))
	var wg sync.WaitGroup
	for i, addr := range cfg.Peers {
		wg.Add(1)
		go func(i int, addr string) {
			defer wg.Done()
			errs[i] = invalidateOne(addr, hash, d, cfg.Tracer)
		}(i, addr)
	}
	wg.Wait()
	var firstErr error
	for _, err := range errs {
		if err != nil {
			firstErr = err
			break
		}
	}
	if cfg.Logger != nil {
		cfg.Logger.Debug("cluster: instance invalidated on peers",
			"hash", hash, "peers", len(cfg.Peers), "err", firstErr)
	}
	return firstErr
}

// invalidateOne runs the hello handshake and one invalidate/ack round trip
// on channel 0 against a single peer.
func invalidateOne(addr, hash string, d time.Duration, tr telemetry.Tracer) error {
	conn, err := dialPeer(addr, d, tr, "")
	if err != nil {
		return err
	}
	m := newMux(conn, d, tr, addr)
	rw := m.channel(0)
	go m.readLoop()
	// Tear the reader down before returning (close unblocks it), so a
	// completed invalidation leaves no goroutine behind.
	defer func() { conn.Close(); <-m.done }()
	if err := rw.sendFrame(ftInvalidate, []byte(hash)); err != nil {
		return lost(addr, "invalidate", err)
	}
	ack, _, err := expectFrame(rw, addr, ftHashOK)
	if err != nil {
		return err
	}
	if string(ack) != hash {
		return protocolErr(addr, fmt.Errorf("%w: invalidate ack %q for %q", ErrBadFrame, ack, hash))
	}
	return nil
}

func lost(addr, op string, cause error) error {
	return fmt.Errorf("%w: %s: %s: %v", ErrPeerLost, addr, op, cause)
}

func protocolErr(addr string, cause error) error {
	return fmt.Errorf("cluster: peer %s: %w", addr, cause)
}
