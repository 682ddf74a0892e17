package cluster

import (
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"distcover/internal/core"
	"distcover/internal/telemetry"
)

// countingListener counts accepted connections, so tests can assert how
// many TCP connections a solve actually opened against a peer.
type countingListener struct {
	net.Listener
	accepted atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err == nil {
		l.accepted.Add(1)
	}
	return conn, err
}

// startCountingPeer launches one peer (optionally tweaked by mod) behind a
// connection-counting listener.
func startCountingPeer(t *testing.T, mod func(*Peer)) (string, *countingListener) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl := &countingListener{Listener: ln}
	p := NewPeer()
	if mod != nil {
		mod(p)
	}
	served := make(chan error, 1)
	go func() { served <- p.Serve(cl) }()
	t.Cleanup(func() {
		p.Close()
		if err := <-served; !errors.Is(err, ErrPeerClosed) {
			t.Errorf("Serve returned %v, want ErrPeerClosed", err)
		}
	})
	return ln.Addr().String(), cl
}

// TestClusterMultiplexSharesConnection: with default negotiation (v3), all
// partitions assigned to one peer process ride a single multiplexed TCP
// connection; forcing MaxProtocol 2 opens one connection per partition.
func TestClusterMultiplexSharesConnection(t *testing.T) {
	g := testInstance(t, 21, 60, 180, 3)
	opts := core.DefaultOptions()
	want, err := core.RunFlat(g, opts, 2)
	if err != nil {
		t.Fatal(err)
	}

	addr, cl := startCountingPeer(t, nil)
	got, err := Solve(g, opts, Config{Peers: []string{addr}, Partitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	requireResultsEqual(t, "mux", got, want)
	if n := cl.accepted.Load(); n != 1 {
		t.Fatalf("v3 solve with 4 partitions opened %d connections, want 1 multiplexed", n)
	}

	addr2, cl2 := startCountingPeer(t, nil)
	got, err = Solve(g, opts, Config{Peers: []string{addr2}, Partitions: 4, MaxProtocol: 2})
	if err != nil {
		t.Fatal(err)
	}
	requireResultsEqual(t, "forced-v2", got, want)
	if n := cl2.accepted.Load(); n != 4 {
		t.Fatalf("forced-v2 solve with 4 partitions opened %d connections, want 4", n)
	}
}

// TestClusterSequentialRelayMatchesFlat: the historical sequential relay
// (always plain v2) stays bit-identical to the flat runner and to the
// concurrent fan-out relay.
func TestClusterSequentialRelayMatchesFlat(t *testing.T) {
	addrs := startPeers(t, 2)
	g := testInstance(t, 22, 50, 150, 3)
	opts := core.DefaultOptions()
	opts.Epsilon = 0.5
	want, err := core.RunFlat(g, opts, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, parts := range []int{2, 4} {
		got, err := Solve(g, opts, Config{Peers: addrs, Partitions: parts, SequentialRelay: true})
		if err != nil {
			t.Fatalf("sequential parts %d: %v", parts, err)
		}
		requireResultsEqual(t, "sequential", got, want)
	}
}

// TestClusterMixedVersionPeers: a v2-only peer process and a v3 peer in the
// same solve — negotiation settles per connection, results stay identical.
func TestClusterMixedVersionPeers(t *testing.T) {
	v2addr, v2l := startCountingPeer(t, func(p *Peer) { p.MaxProtocol = 2 })
	v3addr, v3l := startCountingPeer(t, nil)
	g := testInstance(t, 23, 60, 180, 3)
	opts := core.DefaultOptions()
	want, err := core.RunFlat(g, opts, 2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Solve(g, opts, Config{Peers: []string{v2addr, v3addr}, Partitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	requireResultsEqual(t, "mixed", got, want)
	// The v2-only peer holds partitions 0 and 2 on two plain connections;
	// the v3 peer multiplexes partitions 1 and 3 onto one.
	if n := v2l.accepted.Load(); n != 2 {
		t.Fatalf("v2-only peer saw %d connections, want 2", n)
	}
	if n := v3l.accepted.Load(); n != 1 {
		t.Fatalf("v3 peer saw %d connections, want 1", n)
	}
}

// TestClusterInvalidateVersions: Invalidate reaches peers over both the
// multiplexed v3 path and a forced-v2 connection, and actually evicts — the
// peer-side cache tracer sees miss, hit, then miss again after Invalidate.
func TestClusterInvalidateVersions(t *testing.T) {
	rec := telemetry.NewRecorder("")
	addr, _ := startCountingPeer(t, func(p *Peer) { p.Tracer = rec })
	g := testInstance(t, 24, 40, 120, 2)
	opts := core.DefaultOptions()
	// One partition per solve keeps the cache hit/miss sequence
	// deterministic (concurrent setups of one solve race each other into
	// the peer cache).
	cfg := Config{Peers: []string{addr}, Partitions: 1}

	solve := func() {
		t.Helper()
		if _, err := Solve(g, opts, cfg); err != nil {
			t.Fatal(err)
		}
	}
	counts := func() (hits, misses int) {
		rep := rec.Report()
		return rep.InstanceCacheHits, rep.InstanceCacheMisses
	}

	solve()
	if h, m := counts(); m != 1 || h != 0 {
		t.Fatalf("cold solve: hits=%d misses=%d, want 0/1", h, m)
	}
	solve()
	if h, m := counts(); m != 1 || h != 1 {
		t.Fatalf("warm solve: hits=%d misses=%d, want 1/1", h, m)
	}
	if err := Invalidate(g.Hash(), cfg); err != nil {
		t.Fatalf("invalidate (v3): %v", err)
	}
	solve()
	if h, m := counts(); m != 2 {
		t.Fatalf("post-invalidate solve: hits=%d misses=%d, want a second miss", h, m)
	}
	if err := Invalidate(g.Hash(), Config{Peers: []string{addr}, MaxProtocol: 2}); err != nil {
		t.Fatalf("invalidate (v2): %v", err)
	}
	solve()
	if _, m := counts(); m != 3 {
		t.Fatalf("post-v2-invalidate solve: misses=%d, want 3", m)
	}
}

// TestClusterFanOutTracer: the fan-out relay drives one tracer from
// concurrent relay goroutines; the recorder must come back consistent —
// per-peer exchange counts matching the solve's iteration count and frame
// accounting in both directions. Run under -race this is also the
// concurrency-safety regression for the shared tracer.
func TestClusterFanOutTracer(t *testing.T) {
	addrs := startPeers(t, 2)
	rec := telemetry.NewRecorder("")
	g := testInstance(t, 25, 60, 180, 3)
	opts := core.DefaultOptions()
	got, err := Solve(g, opts, Config{Peers: addrs, Partitions: 4, Tracer: rec})
	if err != nil {
		t.Fatal(err)
	}
	rep := rec.Report()
	if len(rep.Peers) != 2 {
		t.Fatalf("report has %d peers, want 2", len(rep.Peers))
	}
	for _, ps := range rep.Peers {
		// Two partitions per peer, two exchanges per iteration each.
		if want := 2 * 2 * got.Iterations; ps.Exchanges != want {
			t.Fatalf("peer %s: %d exchanges, want %d", ps.Peer, ps.Exchanges, want)
		}
		if ps.FramesSent == 0 || ps.FramesReceived == 0 ||
			ps.BytesSent == 0 || ps.BytesReceived == 0 {
			t.Fatalf("peer %s: missing frame accounting: %+v", ps.Peer, ps)
		}
	}
}

// TestClusterForcedV2MatchesFlat sweeps partition counts over forced-v2
// connections (wire-compat regression for talking to older peers).
func TestClusterForcedV2MatchesFlat(t *testing.T) {
	addrs := startPeers(t, 2)
	g := testInstance(t, 26, 50, 150, 3)
	opts := core.DefaultOptions()
	want, err := core.RunFlat(g, opts, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, parts := range []int{1, 2, 3, 4} {
		got, err := Solve(g, opts, Config{Peers: addrs, Partitions: parts, MaxProtocol: 2})
		if err != nil {
			t.Fatalf("parts %d: %v", parts, err)
		}
		requireResultsEqual(t, "forced-v2", got, want)
	}
}

// TestClusterMuxPeerFailure: a solver-level failure on one multiplexed
// channel must surface as ErrPeerFailed while other channels on the same
// connection are mid-solve, and must not wedge the connection.
func TestClusterMuxPeerFailure(t *testing.T) {
	addr, _ := startCountingPeer(t, nil)
	g := testInstance(t, 27, 40, 120, 3)
	bad := core.DefaultOptions()
	bad.MaxIterations = 1
	if _, err := Solve(g, bad, Config{Peers: []string{addr}, Partitions: 3, Timeout: 5 * time.Second}); !errors.Is(err, ErrPeerFailed) {
		t.Fatalf("err = %v, want ErrPeerFailed", err)
	}
	// The peer must still serve a healthy solve afterwards.
	opts := core.DefaultOptions()
	want, err := core.RunFlat(g, opts, 2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Solve(g, opts, Config{Peers: []string{addr}, Partitions: 3})
	if err != nil {
		t.Fatal(err)
	}
	requireResultsEqual(t, "post-failure", got, want)
}

// TestMuxPeerAnswersEveryNewChannel: many v3 channels opened at once on
// one connection must each get their answer. The peer starts a handler per
// new channel from its read loop; if the handler could reach its first
// read before the channel's subscription was registered, it would find
// none, exit as if the connection were gone, and leave the coordinator to
// wait out the read timeout.
func TestMuxPeerAnswersEveryNewChannel(t *testing.T) {
	addr, _ := startCountingPeer(t, nil)
	const rounds, channels = 100, 16
	d := 5 * time.Second
	for round := 0; round < rounds; round++ {
		conn, ver, err := dialNegotiate(addr, d, nil, 3, "")
		if err != nil {
			t.Fatal(err)
		}
		if ver != 3 {
			conn.Close()
			t.Fatalf("negotiated protocol %d, want 3", ver)
		}
		m := newMux(conn, d, nil, addr)
		rws := make([]frameRW, channels)
		for ch := range rws {
			rws[ch] = m.channel(uint16(ch))
		}
		go m.readLoop()
		errs := make(chan error, channels)
		for ch, rw := range rws {
			go func(ch int, rw frameRW) {
				hash := fmt.Sprintf("round %d channel %d", round, ch)
				if err := rw.sendFrame(ftInvalidate, []byte(hash)); err != nil {
					errs <- err
					return
				}
				ack, _, err := expectFrame(rw, addr, ftHashOK)
				if err == nil && string(ack) != hash {
					err = fmt.Errorf("channel %d: ack %q for %q", ch, ack, hash)
				}
				errs <- err
			}(ch, rw)
		}
		var first error
		for range rws {
			if err := <-errs; err != nil && first == nil {
				first = err
			}
		}
		conn.Close()
		<-m.done
		if first != nil {
			t.Fatalf("round %d: %v", round, first)
		}
	}
}
