package cluster

import (
	"encoding/json"
	"errors"
	"math/rand"
	"net"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"distcover/internal/core"
	"distcover/internal/hypergraph"
)

// startPeers launches n in-process peers on 127.0.0.1:0 listeners and
// returns their addresses. Cleanup closes them and verifies Serve returned
// ErrPeerClosed.
func startPeers(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		p := NewPeer()
		addrs[i] = ln.Addr().String()
		served := make(chan error, 1)
		go func() { served <- p.Serve(ln) }()
		t.Cleanup(func() {
			p.Close()
			if err := <-served; !errors.Is(err, ErrPeerClosed) {
				t.Errorf("Serve returned %v, want ErrPeerClosed", err)
			}
		})
	}
	return addrs
}

func testInstance(t *testing.T, seed int64, n, m, f int) *hypergraph.Hypergraph {
	t.Helper()
	g, err := hypergraph.UniformRandom(n, m, f, hypergraph.GenConfig{
		Seed: seed, Dist: hypergraph.WeightUniformRange, MaxWeight: 200,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// requireResultsEqual asserts cluster and flat results agree bit for bit on
// every reconstructed field.
func requireResultsEqual(t *testing.T, label string, got, want *core.Result) {
	t.Helper()
	if !reflect.DeepEqual(got.Cover, want.Cover) || !reflect.DeepEqual(got.Dual, want.Dual) ||
		!reflect.DeepEqual(got.InCover, want.InCover) {
		t.Fatalf("%s: cover/duals diverge from flat", label)
	}
	if got.CoverWeight != want.CoverWeight || got.DualValue != want.DualValue ||
		got.RatioBound != want.RatioBound || got.Iterations != want.Iterations ||
		got.Rounds != want.Rounds || got.MaxLevel != want.MaxLevel || got.Z != want.Z ||
		got.Alpha != want.Alpha || got.Epsilon != want.Epsilon {
		t.Fatalf("%s: scalars diverge:\n got %+v\nwant %+v", label, got, want)
	}
}

// TestClusterSolveMatchesFlat runs real TCP cluster solves — including more
// partitions than peers (several connections per process) — against the
// single-process flat runner.
func TestClusterSolveMatchesFlat(t *testing.T) {
	addrs := startPeers(t, 2)
	rng := rand.New(rand.NewSource(31007))
	for i := 0; i < 4; i++ {
		g := testInstance(t, rng.Int63(), 40+10*i, 120, 2+i%3)
		opts := core.DefaultOptions()
		opts.Epsilon = []float64{1, 0.5}[i%2]
		want, err := core.Run(g, opts, nil, 2)
		if err != nil {
			t.Fatal(err)
		}
		for _, parts := range []int{0, 2, 4} { // 0 = one per peer
			got, err := Solve(g, opts, nil, Config{Peers: addrs, Partitions: parts})
			if err != nil {
				t.Fatalf("instance %d parts %d: %v", i, parts, err)
			}
			requireResultsEqual(t, "solve", got, want)
		}
	}
}

// TestClusterSolveResidualMatchesFlat covers the warm-started update path
// over real TCP.
func TestClusterSolveResidualMatchesFlat(t *testing.T) {
	addrs := startPeers(t, 3)
	rng := rand.New(rand.NewSource(5511))
	g := testInstance(t, 99, 60, 180, 3)
	carry := make([]float64, g.NumVertices())
	for v := range carry {
		carry[v] = rng.Float64() * 0.9 * float64(g.Weight(hypergraph.VertexID(v)))
	}
	opts := core.DefaultOptions()
	want, err := core.Run(g, opts, carry, 2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Solve(g, opts, carry, Config{Peers: addrs})
	if err != nil {
		t.Fatal(err)
	}
	requireResultsEqual(t, "residual", got, want)
}

// TestClusterNoPeers checks the typed empty-configuration error.
func TestClusterNoPeers(t *testing.T) {
	g := testInstance(t, 1, 10, 20, 2)
	if _, err := Solve(g, core.DefaultOptions(), nil, Config{}); !errors.Is(err, ErrNoPeers) {
		t.Fatalf("err = %v, want ErrNoPeers", err)
	}
}

// TestClusterPeerUnreachable: dialing a dead address is a lost peer.
func TestClusterPeerUnreachable(t *testing.T) {
	// Reserve a port, then close it so nothing listens there.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	g := testInstance(t, 2, 10, 20, 2)
	_, err = Solve(g, core.DefaultOptions(), nil, Config{Peers: []string{addr}, Timeout: 2 * time.Second})
	if !errors.Is(err, ErrPeerLost) {
		t.Fatalf("err = %v, want ErrPeerLost", err)
	}
}

// dropAfterBoundary is a fake peer that follows the protocol through the
// first boundary frame of iteration 1 and then drops the connection — a
// deterministic stand-in for a peer dying mid-round.
func dropAfterBoundary(t *testing.T) (addr string, stop func()) {
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
				if err := writeJSONFrame(conn, ftHello, makeHello("")); err != nil {
					return
				}
				if err := conn.SetReadDeadline(time.Now().Add(time.Second)); err != nil {
					return
				}
				ch, _, payload, err := readFrameV3(conn) // setup
				if err != nil {
					return
				}
				// Claim the instance is cached so the coordinator proceeds
				// straight to the exchange loop.
				var setup setupFrame
				if err := json.Unmarshal(payload, &setup); err != nil {
					return
				}
				if err := writeFrameV3(conn, ch, ftHashOK, []byte(setup.Hash)); err != nil {
					return
				}
				// Pretend to have an empty boundary, then vanish before the
				// combined frame ships back.
				if err := writeFrameV3(conn, ch, ftBoundary, encodeBoundary(nil, 1, core.BoundaryFrame{Part: setup.Part})); err != nil {
					return
				}
			}()
		}
	}()
	var once sync.Once
	stop = func() { once.Do(func() { ln.Close(); <-done }) }
	t.Cleanup(stop)
	return ln.Addr().String(), stop
}

// TestClusterPeerLostMidRound: one real peer plus one that drops mid-round;
// the coordinator must return ErrPeerLost promptly, with the surviving peer
// unblocked (its handler drains — checked by the goroutine regression
// below, which includes this test's scenario).
func TestClusterPeerLostMidRound(t *testing.T) {
	real := startPeers(t, 1)
	faker, _ := dropAfterBoundary(t)
	g := testInstance(t, 7, 30, 90, 3)
	start := time.Now()
	_, err := Solve(g, core.DefaultOptions(), nil, Config{Peers: []string{real[0], faker}, Timeout: 5 * time.Second})
	if !errors.Is(err, ErrPeerLost) {
		t.Fatalf("err = %v, want ErrPeerLost", err)
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Fatalf("coordinator took %v to notice the lost peer", d)
	}
}

// TestClusterPeerFailed: a peer-side solver failure (iteration limit)
// arrives as the typed ErrPeerFailed, not as a lost connection.
func TestClusterPeerFailed(t *testing.T) {
	addrs := startPeers(t, 2)
	g := testInstance(t, 8, 40, 120, 3)
	opts := core.DefaultOptions()
	opts.MaxIterations = 1
	_, err := Solve(g, opts, nil, Config{Peers: addrs})
	if !errors.Is(err, ErrPeerFailed) {
		t.Fatalf("err = %v, want ErrPeerFailed", err)
	}
}

// TestClusterTimeout: a peer that accepts and never speaks trips the
// coordinator's read deadline and surfaces as ErrPeerLost.
func TestClusterTimeout(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close() // hold the connection open, silently
		}
	}()
	g := testInstance(t, 9, 10, 20, 2)
	start := time.Now()
	_, err = Solve(g, core.DefaultOptions(), nil, Config{Peers: []string{ln.Addr().String()}, Timeout: 300 * time.Millisecond})
	if !errors.Is(err, ErrPeerLost) {
		t.Fatalf("err = %v, want ErrPeerLost", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("timeout took %v", d)
	}
}

// waitGoroutinesBack polls until the goroutine count returns to (about) the
// pre-test level, the regression idiom the congest engines use.
func waitGoroutinesBack(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		now := runtime.NumGoroutine()
		if now <= before {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d before, %d after\n%s", before, now, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestClusterGoroutineRegression extends the goroutine-count regression
// tests to the peer path: successful solves, a mid-round peer loss and a
// peer-side failure must all leave the goroutine count where it started
// once the peers are closed.
func TestClusterGoroutineRegression(t *testing.T) {
	before := runtime.NumGoroutine()
	func() {
		var peers []*Peer
		var addrs []string
		for i := 0; i < 2; i++ {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			p := NewPeer()
			go p.Serve(ln)
			peers = append(peers, p)
			addrs = append(addrs, ln.Addr().String())
		}
		defer func() {
			for _, p := range peers {
				p.Close()
			}
		}()
		g := testInstance(t, 11, 30, 90, 3)
		if _, err := Solve(g, core.DefaultOptions(), nil, Config{Peers: addrs}); err != nil {
			t.Fatal(err)
		}
		bad := core.DefaultOptions()
		bad.MaxIterations = 1
		if _, err := Solve(g, bad, nil, Config{Peers: addrs}); !errors.Is(err, ErrPeerFailed) {
			t.Fatalf("err = %v, want ErrPeerFailed", err)
		}
		faker, stopFaker := dropAfterBoundary(t)
		if _, err := Solve(g, core.DefaultOptions(), nil, Config{Peers: []string{addrs[0], faker}, Timeout: 5 * time.Second}); !errors.Is(err, ErrPeerLost) {
			t.Fatalf("err = %v, want ErrPeerLost", err)
		}
		stopFaker()
	}()
	waitGoroutinesBack(t, before)
}
