package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"time"

	"distcover/internal/core"
	"distcover/internal/hypergraph"
	"distcover/internal/telemetry"
)

// This file is the concurrent fan-out/fan-in relay, the coordinator's
// only relay. One goroutine per partition owns its channel end to end —
// the shared connection's dial and hello (done once per peer process, by
// whichever of its partitions gets there first), the setup handshake, the
// per-iteration frame relay and the result read — while the coordinator
// goroutine only aggregates: it collects the np boundary contributions of
// an iteration through a channel, encodes the combined broadcast once,
// hands it back to every relay, and does the same for the coverage
// totals. All partitions of one peer process share one multiplexed (v3)
// connection.
//
// Failure discipline: the first error out of any relay cancels the solve
// context and closes every connection, which unblocks relays parked in
// reads as well as relays parked on aggregation channels — no peer is ever
// waited on behind a dead one, and the error that started the teardown is
// the one returned (ErrPeerLost/ErrPeerFailed semantics unchanged).

// boundaryMsg is one relay's per-iteration boundary contribution (the
// still-encoded payload; the aggregator concatenates payloads, it never
// re-encodes states).
type boundaryMsg struct {
	part      int
	iteration int
	payload   []byte
}

// coverageMsg is one relay's per-iteration owned-coverage contribution.
type coverageMsg struct {
	part      int
	iteration int
	covered   int
}

// resultMsg is one relay's decoded partial result.
type resultMsg struct {
	part    int
	partial *core.PartialResult
}

// peerLink is the shared per-address dial state: the first relay to need
// an address dials and handshakes once, and every co-located partition
// then channels through the link's mux.
type peerLink struct {
	once sync.Once
	mux  *mux
	err  error
}

// fanout holds one concurrent relay run.
type fanout struct {
	g       *hypergraph.Hypergraph
	opts    core.Options
	carry   []float64
	cfg     Config
	bounds  []int
	np      int
	d       time.Duration
	traceID string
	hash    string
	marshal func() ([]byte, error)

	ctx    context.Context
	cancel context.CancelFunc

	links map[string]*peerLink

	connMu  sync.Mutex
	conns   []net.Conn
	closing bool

	wg sync.WaitGroup

	// Relay → aggregator fan-in.
	bCh   chan boundaryMsg
	cCh   chan coverageMsg
	resCh chan resultMsg
	errCh chan error

	// Aggregator → relay fan-out, one single-slot channel per partition.
	// The strict request/response cadence guarantees the slot is free when
	// the aggregator sends, so broadcasting never blocks on a dead relay.
	bOut []chan []byte
	cOut []chan int
}

// runFanOut executes one cluster solve over the concurrent relay.
func runFanOut(g *hypergraph.Hypergraph, opts core.Options, carry []float64, cfg Config, bounds []int, traceID string) (*core.Result, error) {
	np := len(bounds) - 1
	ctx, cancel := context.WithCancel(context.Background())
	fo := &fanout{
		g: g, opts: opts, carry: carry, cfg: cfg, bounds: bounds, np: np,
		d:       cfg.timeout(),
		traceID: traceID,
		hash:    g.Hash(),
		marshal: instanceMarshaler(g),
		ctx:     ctx, cancel: cancel,
		links: make(map[string]*peerLink, len(cfg.Peers)),
		bCh:   make(chan boundaryMsg, np),
		cCh:   make(chan coverageMsg, np),
		resCh: make(chan resultMsg, np),
		errCh: make(chan error, np),
		bOut:  make([]chan []byte, np),
		cOut:  make([]chan int, np),
	}
	for _, addr := range cfg.Peers {
		if _, ok := fo.links[addr]; !ok {
			fo.links[addr] = &peerLink{}
		}
	}
	for p := 0; p < np; p++ {
		fo.bOut[p] = make(chan []byte, 1)
		fo.cOut[p] = make(chan int, 1)
	}
	defer fo.shutdown()
	for p := 0; p < np; p++ {
		fo.wg.Add(1)
		go fo.relay(p)
	}
	return fo.aggregate()
}

// shutdown cancels the context, closes every connection and waits for
// every relay (and mux reader) to exit. It runs on every return path, so
// success and failure drain identically — the goroutine regression tests
// hold the fan-out relay to zero leaks.
func (fo *fanout) shutdown() {
	fo.cancel()
	fo.connMu.Lock()
	fo.closing = true
	for _, c := range fo.conns {
		c.Close()
	}
	fo.connMu.Unlock()
	fo.wg.Wait()
}

// track registers a connection for shutdown. A connection dialed after
// shutdown began (a relay racing the teardown) is closed on the spot so
// its relay fails fast instead of handshaking into the void.
func (fo *fanout) track(conn net.Conn) {
	fo.connMu.Lock()
	if fo.closing {
		conn.Close()
	}
	fo.conns = append(fo.conns, conn)
	fo.connMu.Unlock()
}

// relay runs one partition's connection lifecycle, reporting at most one
// error into the fan-in.
func (fo *fanout) relay(p int) {
	defer fo.wg.Done()
	if err := fo.relayPartition(p); err != nil {
		fo.errCh <- err
	}
}

// connect returns partition p's channel on the shared connection to
// addr, dialing it on first use.
func (fo *fanout) connect(p int, addr string) (frameRW, error) {
	link := fo.links[addr]
	link.once.Do(func() {
		conn, err := dialPeer(addr, fo.d, fo.cfg.Tracer, fo.traceID)
		if err != nil {
			link.err = err
			return
		}
		fo.track(conn)
		link.mux = newMux(conn, fo.d, fo.cfg.Tracer, addr)
		fo.wg.Add(1)
		go func() {
			defer fo.wg.Done()
			link.mux.readLoop()
		}()
	})
	if link.err != nil {
		return nil, link.err
	}
	return link.mux.channel(uint16(p)), nil
}

// relayPartition is one partition's full conversation with its peer. A nil
// return on a ctx.Done() branch means another relay's failure is already
// tearing the solve down; this relay just leaves quietly.
func (fo *fanout) relayPartition(p int) error {
	addr := fo.cfg.Peers[p%len(fo.cfg.Peers)]
	rw, err := fo.connect(p, addr)
	if err != nil {
		return err
	}
	hit, err := setupPartition(rw, addr, setupFrame{
		Hash:    fo.hash,
		Carry:   fo.carry,
		Options: toSetupOptions(fo.opts),
		Bounds:  fo.bounds,
		Part:    p,
		TraceID: fo.traceID,
	}, fo.marshal)
	if err != nil {
		return err
	}
	if lg := fo.cfg.Logger; lg != nil {
		lg.Debug("cluster: partition dispatched", "trace_id", fo.traceID,
			"peer_addr", addr, "part", p, "hash", fo.hash, "cache_hit", hit,
			"range_lo", fo.bounds[p], "range_hi", fo.bounds[p+1])
	}

	// The relay tracks the uncovered count from the totals it hands back,
	// so it knows — in lockstep with its peer and the aggregator — when
	// the conversation moves on to the result frame.
	tr := fo.cfg.Tracer
	uncovered := fo.g.NumEdges()
	iteration := 0
	var cbuf []byte
	for uncovered > 0 {
		iteration++
		var waitT time.Time
		if tr != nil {
			waitT = time.Now()
		}
		payload, _, err := expectFrame(rw, addr, ftBoundary)
		if err != nil {
			return err
		}
		if tr != nil {
			tr.Exchange(addr, telemetry.ExchangeBoundary, iteration, time.Since(waitT))
		}
		it, fr, err := decodeBoundary(payload)
		if err != nil {
			return protocolErr(addr, err)
		}
		if it != iteration || fr.Part != p {
			return protocolErr(addr, fmt.Errorf("%w: boundary (iter %d part %d) during iter %d part %d",
				ErrBadFrame, it, fr.Part, iteration, p))
		}
		select {
		case fo.bCh <- boundaryMsg{part: p, iteration: iteration, payload: payload}:
		case <-fo.ctx.Done():
			return nil
		}
		var combined []byte
		select {
		case combined = <-fo.bOut[p]:
		case <-fo.ctx.Done():
			return nil
		}
		if err := rw.sendFrame(ftAllB, combined); err != nil {
			return lost(addr, "combined boundary", err)
		}

		if tr != nil {
			waitT = time.Now()
		}
		payload, _, err = expectFrame(rw, addr, ftCoverage)
		if err != nil {
			return err
		}
		if tr != nil {
			tr.Exchange(addr, telemetry.ExchangeCoverage, iteration, time.Since(waitT))
		}
		cit, covered, err := decodeCoverage(payload)
		if err != nil {
			return protocolErr(addr, err)
		}
		if cit != iteration {
			return protocolErr(addr, fmt.Errorf("%w: coverage for iteration %d during %d", ErrBadFrame, cit, iteration))
		}
		select {
		case fo.cCh <- coverageMsg{part: p, iteration: iteration, covered: covered}:
		case <-fo.ctx.Done():
			return nil
		}
		var total int
		select {
		case total = <-fo.cOut[p]:
		case <-fo.ctx.Done():
			return nil
		}
		cbuf = encodeCoverage(cbuf, iteration, total)
		if err := rw.sendFrame(ftAllC, cbuf); err != nil {
			return lost(addr, "combined coverage", err)
		}
		uncovered -= total
	}

	payload, _, err := expectFrame(rw, addr, ftResult)
	if err != nil {
		return err
	}
	var frj resultFrame
	if err := json.Unmarshal(payload, &frj); err != nil {
		return protocolErr(addr, fmt.Errorf("%w: result: %v", ErrBadFrame, err))
	}
	select {
	case fo.resCh <- resultMsg{part: p, partial: frameToPartial(frj)}:
	case <-fo.ctx.Done():
	}
	return nil
}

// aggregate is the coordinator's fan-in loop: collect np contributions,
// combine, hand back, repeat; then collect the partials and assemble. The
// first relay error aborts the round mid-collection — the deferred
// shutdown unblocks everything still in flight.
func (fo *fanout) aggregate() (*core.Result, error) {
	np := fo.np
	uncovered := fo.g.NumEdges()
	iteration := 0
	payloads := make([][]byte, np)
	for uncovered > 0 {
		iteration++
		for i := 0; i < np; i++ {
			select {
			case m := <-fo.bCh:
				if m.iteration != iteration {
					return nil, fmt.Errorf("%w: relay boundary for iteration %d during %d", ErrBadFrame, m.iteration, iteration)
				}
				payloads[m.part] = m.payload
			case err := <-fo.errCh:
				return nil, err
			}
		}
		// A fresh buffer per iteration: every relay holds a reference to
		// the broadcast while writing it out concurrently, so the buffer
		// cannot be recycled across iterations.
		combined := encodeCombinedBoundary(nil, iteration, payloads)
		for p := 0; p < np; p++ {
			fo.bOut[p] <- combined
		}
		total := 0
		for i := 0; i < np; i++ {
			select {
			case m := <-fo.cCh:
				if m.iteration != iteration {
					return nil, fmt.Errorf("%w: relay coverage for iteration %d during %d", ErrBadFrame, m.iteration, iteration)
				}
				total += m.covered
			case err := <-fo.errCh:
				return nil, err
			}
		}
		if total > uncovered {
			return nil, fmt.Errorf("%w: peers covered %d of %d uncovered edges", ErrBadFrame, total, uncovered)
		}
		for p := 0; p < np; p++ {
			fo.cOut[p] <- total
		}
		uncovered -= total
	}

	partials := make([]*core.PartialResult, np)
	for i := 0; i < np; i++ {
		select {
		case m := <-fo.resCh:
			partials[m.part] = m.partial
		case err := <-fo.errCh:
			return nil, err
		}
	}
	res, err := core.AssembleParts(fo.g, fo.opts, partials)
	if err != nil {
		return nil, fmt.Errorf("cluster: assemble: %w", err)
	}
	return res, nil
}
