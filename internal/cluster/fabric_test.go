package cluster

import (
	"encoding/json"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"distcover/internal/core"
	"distcover/internal/telemetry"
)

// wireCounter is a Tracer+CacheTracer that tallies frame bytes by kind and
// instance-cache lookups, for asserting what the fabric actually shipped.
type wireCounter struct {
	mu         sync.Mutex
	sentByKind map[string]int
	recvByKind map[string]int
	hits       int
	misses     int
}

func newWireCounter() *wireCounter {
	return &wireCounter{sentByKind: map[string]int{}, recvByKind: map[string]int{}}
}

func (w *wireCounter) Phase(int, string, time.Duration, time.Duration) {}
func (w *wireCounter) Exchange(string, string, int, time.Duration)     {}
func (w *wireCounter) Protocol(int, int64)                             {}
func (w *wireCounter) Frame(peer, dir, kind string, bytes int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if dir == telemetry.DirSent {
		w.sentByKind[kind] += bytes
	} else {
		w.recvByKind[kind] += bytes
	}
}
func (w *wireCounter) InstanceCache(hit bool, bytes int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if hit {
		w.hits++
	} else {
		w.misses++
	}
}

func (w *wireCounter) sent(kind string) int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.sentByKind[kind]
}

// startTracedPeers launches n peers sharing one wireCounter tracer.
func startTracedPeers(t *testing.T, n int, tr telemetry.Tracer, budget int64) ([]string, []*Peer) {
	t.Helper()
	addrs := make([]string, n)
	peers := make([]*Peer, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		p := NewPeer()
		p.Tracer = tr
		p.InstanceCacheBudget = budget
		go p.Serve(ln)
		t.Cleanup(func() { p.Close() })
		addrs[i] = ln.Addr().String()
		peers[i] = p
	}
	return addrs, peers
}

// TestFabricRepeatSolveShipsHashOnly: the first solve of an instance pays
// one ftInstance re-sync per peer; the second solve of the same instance
// ships only the hash and still matches the flat engine bit for bit.
func TestFabricRepeatSolveShipsHashOnly(t *testing.T) {
	peerTr := newWireCounter()
	addrs, peers := startTracedPeers(t, 2, peerTr, 0)
	g := testInstance(t, 4242, 200, 600, 3)
	opts := core.DefaultOptions()
	want, err := core.RunFlat(g, opts, nil, 2)
	if err != nil {
		t.Fatal(err)
	}

	coordTr := newWireCounter()
	cfg := Config{Peers: addrs, Tracer: coordTr}
	first, err := Solve(g, opts, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	requireResultsEqual(t, "first solve", first, want)
	firstInstBytes := coordTr.sent("instance")
	if firstInstBytes == 0 {
		t.Fatal("first contact shipped no instance re-sync frame")
	}
	if peerTr.misses != 2 || peerTr.hits != 0 {
		t.Fatalf("first contact: %d hits / %d misses, want 0/2", peerTr.hits, peerTr.misses)
	}

	second, err := Solve(g, opts, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	requireResultsEqual(t, "second solve", second, want)
	if got := coordTr.sent("instance"); got != firstInstBytes {
		t.Fatalf("second solve re-shipped the instance: %d bytes beyond first contact", got-firstInstBytes)
	}
	if peerTr.hits != 2 {
		t.Fatalf("second solve: %d cache hits, want 2", peerTr.hits)
	}
	for _, p := range peers {
		entries, bytes := p.InstanceCacheStats()
		if entries != 1 || bytes <= 0 {
			t.Fatalf("peer cache holds %d entries / %d bytes, want 1 entry", entries, bytes)
		}
	}
}

// TestFabricInvalidate: after Invalidate the next solve is a miss again,
// and invalidating on a fresh (never-contacted) peer still acks cleanly.
func TestFabricInvalidate(t *testing.T) {
	peerTr := newWireCounter()
	addrs, peers := startTracedPeers(t, 2, peerTr, 0)
	g := testInstance(t, 555, 60, 180, 3)
	opts := core.DefaultOptions()
	cfg := Config{Peers: addrs, Tracer: newWireCounter()}
	if _, err := Solve(g, opts, nil, cfg); err != nil {
		t.Fatal(err)
	}
	hash := g.Hash()
	if err := Invalidate(hash, cfg); err != nil {
		t.Fatal(err)
	}
	for i, p := range peers {
		if entries, _ := p.InstanceCacheStats(); entries != 0 {
			t.Fatalf("peer %d still holds %d entries after invalidate", i, entries)
		}
	}
	// Idempotent: a second invalidation of the now-absent hash still acks.
	if err := Invalidate(hash, cfg); err != nil {
		t.Fatal(err)
	}
	before := peerTr.misses
	if _, err := Solve(g, opts, nil, cfg); err != nil {
		t.Fatal(err)
	}
	if peerTr.misses != before+2 {
		t.Fatalf("post-invalidate solve: %d misses, want %d", peerTr.misses, before+2)
	}
}

// TestFabricBudgetEviction: a cache budget that fits only one instance
// evicts the least recently used entry, and the evicted instance re-syncs
// on its next solve.
func TestFabricBudgetEviction(t *testing.T) {
	g1 := testInstance(t, 1001, 120, 360, 3)
	g2 := testInstance(t, 1002, 120, 360, 3)
	// Budget below the two instances combined but above either alone.
	budget := g1.MemoryBytes() + g2.MemoryBytes()/2
	peerTr := newWireCounter()
	addrs, peers := startTracedPeers(t, 1, peerTr, budget)
	opts := core.DefaultOptions()
	cfg := Config{Peers: addrs}
	if _, err := Solve(g1, opts, nil, cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := Solve(g2, opts, nil, cfg); err != nil {
		t.Fatal(err)
	}
	if entries, bytes := peers[0].InstanceCacheStats(); entries != 1 || bytes > budget {
		t.Fatalf("cache holds %d entries / %d bytes after eviction, want 1 within %d", entries, bytes, budget)
	}
	// g1 was evicted to admit g2: solving g1 again is a miss, g2 a hit.
	misses := peerTr.misses
	if _, err := Solve(g1, opts, nil, cfg); err != nil {
		t.Fatal(err)
	}
	if peerTr.misses != misses+1 {
		t.Fatalf("evicted instance did not re-sync (misses %d, want %d)", peerTr.misses, misses+1)
	}
	hits := peerTr.hits
	if _, err := Solve(g1, opts, nil, cfg); err != nil {
		t.Fatal(err)
	}
	if peerTr.hits != hits+1 {
		t.Fatalf("resident instance missed (hits %d, want %d)", peerTr.hits, hits+1)
	}
}

// TestFabricHashMismatchRejected: a peer must refuse to cache an instance
// whose content does not hash to the setup's key — cache poisoning would
// corrupt every later solve that hits the entry.
func TestFabricHashMismatchRejected(t *testing.T) {
	addrs, peers := startTracedPeers(t, 1, nil, 0)
	conn, err := net.DialTimeout("tcp", addrs[0], time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	d := 2 * time.Second
	if err := conn.SetDeadline(time.Now().Add(d)); err != nil {
		t.Fatal(err)
	}
	if err := writeJSONFrame(conn, ftHello, makeHello("")); err != nil {
		t.Fatal(err)
	}
	if _, err := expectHello(conn, d); err != nil {
		t.Fatal(err)
	}
	bogus := strings.Repeat("ab", 32)
	setup, err := json.Marshal(setupFrame{
		Hash: bogus, Bounds: []int{0, 3}, Part: 0,
		Options: toSetupOptions(core.DefaultOptions()),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := writeFrameV3(conn, 0, ftSetup, setup); err != nil {
		t.Fatal(err)
	}
	ch, ft, payload, err := readFrameV3(conn)
	if err != nil || ch != 0 || ft != ftHashMiss || string(payload) != bogus {
		t.Fatalf("miss handshake: channel=%d ft=%d payload=%q err=%v", ch, ft, payload, err)
	}
	if err := writeFrameV3(conn, 0, ftInstance, []byte(`{"weights":[1,1,1],"edges":[[0,1],[1,2]]}`)); err != nil {
		t.Fatal(err)
	}
	ch, ft, _, err = readFrameV3(conn)
	if err != nil || ch != 0 || ft != ftError {
		t.Fatalf("poisoned instance: channel=%d ft=%d err=%v, want error frame", ch, ft, err)
	}
	if entries, _ := peers[0].InstanceCacheStats(); entries != 0 {
		t.Fatalf("poisoned instance was cached (%d entries)", entries)
	}
}
