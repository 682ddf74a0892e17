package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
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

// TestClusterMultiplexSharesConnection: all partitions assigned to one
// peer process ride a single multiplexed TCP connection.
func TestClusterMultiplexSharesConnection(t *testing.T) {
	g := testInstance(t, 21, 60, 180, 3)
	opts := core.DefaultOptions()
	want, err := core.Run(g, opts, nil, 2)
	if err != nil {
		t.Fatal(err)
	}

	addr, cl := startCountingPeer(t, nil)
	got, err := Solve(g, opts, nil, Config{Peers: []string{addr}, Partitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	requireResultsEqual(t, "mux", got, want)
	if n := cl.accepted.Load(); n != 1 {
		t.Fatalf("solve with 4 partitions opened %d connections, want 1 multiplexed", n)
	}
}

// v2OnlyPeer is a fake peer that answers every hello the way a build
// without multiplexing would — a version-2 hello with no max_version — and
// then waits for the coordinator to hang up.
func v2OnlyPeer(t *testing.T) (addr string, stop func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			func() {
				defer conn.Close()
				if _, err := expectHello(conn, time.Second); err != nil {
					return
				}
				if err := writeJSONFrame(conn, ftHello, helloFrame{Magic: protoMagic, Version: protoVersion}); err != nil {
					return
				}
				readFrameTimeout(conn, 5*time.Second) // until the coordinator closes
			}()
		}
	}()
	var once sync.Once
	stop = func() { once.Do(func() { ln.Close(); <-done }) }
	t.Cleanup(stop)
	return ln.Addr().String(), stop
}

// TestClusterMixedVersionPeers: protocol v2 and v3 processes refuse each
// other at the hello, in both directions, and leave no goroutine behind.
// A coordinator that meets a v2-only peer fails the solve at once with an
// error naming the peer and wrapping ErrBadFrame — never ErrPeerLost,
// which would invite a retry that cannot help. A peer that receives a
// v2-only hello answers with an error frame and closes the connection.
func TestClusterMixedVersionPeers(t *testing.T) {
	before := runtime.NumGoroutine()
	func() {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		p := NewPeer()
		served := make(chan error, 1)
		go func() { served <- p.Serve(ln) }()
		defer func() {
			p.Close()
			<-served
		}()
		real := ln.Addr().String()
		old, stopOld := v2OnlyPeer(t)
		defer stopOld()

		// Coordinator side: a mixed fleet fails fast with ErrBadFrame.
		g := testInstance(t, 23, 60, 180, 3)
		const timeout = 10 * time.Second
		start := time.Now()
		_, err = Solve(g, core.DefaultOptions(), nil, Config{Peers: []string{real, old}, Partitions: 4, Timeout: timeout})
		if !errors.Is(err, ErrBadFrame) || errors.Is(err, ErrPeerLost) {
			t.Fatalf("err = %v, want ErrBadFrame and not ErrPeerLost", err)
		}
		if !strings.Contains(err.Error(), old) {
			t.Fatalf("err = %v, want it to name the peer %s", err, old)
		}
		if d := time.Since(start); d > timeout/4 {
			t.Fatalf("refusal took %v against a %v timeout", d, timeout)
		}

		// Peer side: a v2-only hello gets an error frame, then EOF.
		conn, err := net.DialTimeout("tcp", real, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if err := writeJSONFrame(conn, ftHello, helloFrame{Magic: protoMagic, Version: protoVersion}); err != nil {
			t.Fatal(err)
		}
		ft, payload, err := readFrameTimeout(conn, 5*time.Second)
		if err != nil || ft != ftError {
			t.Fatalf("v2 hello answered with ft=%d err=%v, want an error frame", ft, err)
		}
		var ef errorFrame
		if err := json.Unmarshal(payload, &ef); err != nil || !strings.Contains(ef.Message, "v3 required") {
			t.Fatalf("error frame %q (%v), want it to require protocol v3", payload, err)
		}
		if _, _, err := readFrameTimeout(conn, 5*time.Second); !errors.Is(err, io.EOF) {
			t.Fatalf("after refusal: err = %v, want EOF", err)
		}
	}()
	waitGoroutinesBack(t, before)
}

// TestClusterInvalidateVersions: Invalidate reaches the peer over channel
// 0 of a multiplexed connection and actually evicts — the peer-side cache
// tracer sees miss, hit, then miss again after each Invalidate.
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
		if _, err := Solve(g, opts, nil, cfg); err != nil {
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
	for want := 2; want <= 3; want++ {
		if err := Invalidate(g.Hash(), cfg); err != nil {
			t.Fatalf("invalidate: %v", err)
		}
		solve()
		if h, m := counts(); m != want {
			t.Fatalf("post-invalidate solve: hits=%d misses=%d, want %d misses", h, m, want)
		}
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
	got, err := Solve(g, opts, nil, Config{Peers: addrs, Partitions: 4, Tracer: rec})
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

// TestClusterMuxPeerFailure: a solver-level failure on one multiplexed
// channel must surface as ErrPeerFailed while other channels on the same
// connection are mid-solve, and must not wedge the connection.
func TestClusterMuxPeerFailure(t *testing.T) {
	addr, _ := startCountingPeer(t, nil)
	g := testInstance(t, 27, 40, 120, 3)
	bad := core.DefaultOptions()
	bad.MaxIterations = 1
	if _, err := Solve(g, bad, nil, Config{Peers: []string{addr}, Partitions: 3, Timeout: 5 * time.Second}); !errors.Is(err, ErrPeerFailed) {
		t.Fatalf("err = %v, want ErrPeerFailed", err)
	}
	// The peer must still serve a healthy solve afterwards.
	opts := core.DefaultOptions()
	want, err := core.Run(g, opts, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Solve(g, opts, nil, Config{Peers: []string{addr}, Partitions: 3})
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
		conn, err := dialPeer(addr, d, nil, "")
		if err != nil {
			t.Fatal(err)
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
