package server_test

import (
	"context"
	"net"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"distcover"
	"distcover/client"
	"distcover/internal/cluster"
	"distcover/server"
	"distcover/server/api"
)

// startDurableServer opens a coverd with a WAL directory and a snapshot
// interval long enough that only explicit shutdown snapshots happen.
func startDurableServer(t *testing.T, dir string, peers []string) (*server.Server, *client.Client, func()) {
	t.Helper()
	srv, err := server.Open(server.Config{
		Workers: 2, QueueDepth: 16, WALDir: dir, SnapshotInterval: time.Hour,
		ClusterPeers: peers,
	})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	return srv, client.New(hs.URL), func() { hs.Close(); srv.Close() }
}

var recoveryDeltas = []api.SessionDelta{
	{Weights: []int64{9, 4}, Edges: [][]int{{60, 61}, {0, 60}, {5, 61}}},
	{Edges: [][]int{{61, 12}, {3, 7, 60}}},
	{Weights: []int64{6}, Edges: [][]int{{62, 1}, {62, 61, 60}}},
}

// referenceSession replays the whole history on an uninterrupted library
// session and returns its final state — the ground truth any recovery path
// must reproduce bit for bit.
func referenceSession(t *testing.T, inst *distcover.Instance, upTo int) distcover.SessionState {
	t.Helper()
	ref, err := distcover.NewSession(inst, distcover.WithEpsilon(0.5), distcover.WithSolverParallelism(0))
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	for _, d := range recoveryDeltas[:upTo] {
		if _, err := ref.Update(distcover.Delta{Weights: d.Weights, Edges: d.Edges}); err != nil {
			t.Fatal(err)
		}
	}
	return ref.State()
}

func requireMatchesReference(t *testing.T, label string, got *api.SessionInfo, want distcover.SessionState) {
	t.Helper()
	if got.InstanceHash != want.Hash {
		t.Fatalf("%s: instance hash %s, want %s", label, got.InstanceHash, want.Hash)
	}
	if !reflect.DeepEqual(got.Result.Cover, want.Solution.Cover) ||
		got.Result.Weight != want.Solution.Weight ||
		got.Result.DualLowerBound != want.Solution.DualLowerBound {
		t.Fatalf("%s: recovered state diverges from uninterrupted run:\n%+v\nvs\n%+v",
			label, got.Result, want.Solution)
	}
	if got.Updates != want.Updates {
		t.Fatalf("%s: %d updates, want %d", label, got.Updates, want.Updates)
	}
	if got.CertifiedBound != want.CertifiedBound {
		t.Fatalf("%s: certified bound %g, want %g", label, got.CertifiedBound, want.CertifiedBound)
	}
}

// TestServerWALRecoveryCleanShutdown: sessions survive a Close/Open cycle
// through the shutdown snapshot, come back flagged as recovered with
// bit-identical state, and keep accepting updates that match an
// uninterrupted run.
func TestServerWALRecoveryCleanShutdown(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	_, c, shutdown := startDurableServer(t, dir, nil)

	inst := genInstance(t, 60, 150, 3, 99)
	si, err := c.CreateSession(ctx, inst, api.SolveOptions{Engine: api.EngineFlat, Epsilon: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if si.Recovered {
		t.Fatal("fresh session marked recovered")
	}
	for _, d := range recoveryDeltas[:2] {
		if _, err := c.UpdateSession(ctx, si.ID, d); err != nil {
			t.Fatal(err)
		}
	}
	shutdown() // writes the final snapshot

	srv2, c2, shutdown2 := startDurableServer(t, dir, nil)
	defer shutdown2()
	if n := srv2.Metrics().Snapshot().SessionsRecov; n != 1 {
		t.Fatalf("sessions_recovered = %d, want 1", n)
	}
	list, err := c2.Sessions(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].ID != si.ID || !list[0].Recovered {
		t.Fatalf("session list after restart: %+v", list)
	}
	requireMatchesReference(t, "after restart", list[0], referenceSession(t, genInstance(t, 60, 150, 3, 99), 2))

	// The recovered session keeps working: one more delta, still identical
	// to a session that never restarted.
	up, err := c2.UpdateSession(ctx, si.ID, recoveryDeltas[2])
	if err != nil {
		t.Fatal(err)
	}
	requireMatchesReference(t, "after post-restart update", up.Session,
		referenceSession(t, genInstance(t, 60, 150, 3, 99), 3))
}

// TestServerWALRecoveryCrash: with no clean shutdown (no final snapshot),
// recovery replays the raw WAL — the create record re-solves, the update
// records re-apply — and still lands on the uninterrupted run's state.
func TestServerWALRecoveryCrash(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	srv1, c, shutdown1 := startDurableServer(t, dir, nil)
	defer shutdown1() // after the assertions; its late snapshot is harmless
	_ = srv1

	inst := genInstance(t, 60, 150, 3, 99)
	si, err := c.CreateSession(ctx, inst, api.SolveOptions{Engine: api.EngineFlat, Epsilon: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range recoveryDeltas {
		if _, err := c.UpdateSession(ctx, si.ID, d); err != nil {
			t.Fatal(err)
		}
	}
	// No shutdown: open a second server over the same directory, as a
	// restart after SIGKILL would. Every acknowledged record was flushed.
	srv2, c2, shutdown2 := startDurableServer(t, dir, nil)
	defer shutdown2()
	if n := srv2.Metrics().Snapshot().SessionsRecov; n != 1 {
		t.Fatalf("sessions_recovered = %d, want 1", n)
	}
	got, err := c2.Session(ctx, si.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Recovered {
		t.Fatal("replayed session not marked recovered")
	}
	requireMatchesReference(t, "after crash recovery", got,
		referenceSession(t, genInstance(t, 60, 150, 3, 99), 3))
}

// TestServerWALDeleteStaysDeleted: an acknowledged delete survives a
// restart; only the live session comes back.
func TestServerWALDeleteStaysDeleted(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	_, c, shutdown := startDurableServer(t, dir, nil)

	keep, err := c.CreateSession(ctx, genInstance(t, 30, 70, 3, 5), api.SolveOptions{Epsilon: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	drop, err := c.CreateSession(ctx, genInstance(t, 30, 70, 3, 6), api.SolveOptions{Epsilon: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.CloseSession(ctx, drop.ID); err != nil {
		t.Fatal(err)
	}
	shutdown()

	_, c2, shutdown2 := startDurableServer(t, dir, nil)
	defer shutdown2()
	list, err := c2.Sessions(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].ID != keep.ID {
		t.Fatalf("after restart: %+v, want only %s", list, keep.ID)
	}
	if _, err := c2.Session(ctx, drop.ID); err != client.ErrNotFound {
		t.Fatalf("deleted session resurrected: err = %v", err)
	}
}

// TestServerWALClusterSessionRecovery: a cluster-engine session recovers
// (rebuilt on the bit-identical flat engine, re-pointed at the peers) and
// continues matching the reference run on post-restart updates.
func TestServerWALClusterSessionRecovery(t *testing.T) {
	peers := startPeerProtocols(t, 2)
	dir := t.TempDir()
	ctx := context.Background()
	_, c, shutdown := startDurableServer(t, dir, peers)

	inst := genInstance(t, 60, 150, 3, 99)
	si, err := c.CreateSession(ctx, inst, api.SolveOptions{Engine: api.EngineCluster, Epsilon: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.UpdateSession(ctx, si.ID, recoveryDeltas[0]); err != nil {
		t.Fatal(err)
	}
	shutdown()

	_, c2, shutdown2 := startDurableServer(t, dir, peers)
	defer shutdown2()
	got, err := c2.Session(ctx, si.ID)
	if err != nil {
		t.Fatal(err)
	}
	requireMatchesReference(t, "cluster session after restart", got,
		referenceSession(t, genInstance(t, 60, 150, 3, 99), 1))
	up, err := c2.UpdateSession(ctx, si.ID, recoveryDeltas[1])
	if err != nil {
		t.Fatal(err)
	}
	requireMatchesReference(t, "cluster session post-restart update", up.Session,
		referenceSession(t, genInstance(t, 60, 150, 3, 99), 2))
}

// TestTracedClusterSolveBypassesResultCache is the regression test for the
// cache-semantics fix: a traced cluster solve must bypass the result cache
// in both directions (its report must describe a real run, and the report
// must not leak to untraced callers), while the peers' content-addressed
// instance caches still serve the repeat setup without a re-sync.
func TestTracedClusterSolveBypassesResultCache(t *testing.T) {
	pm := server.NewMetrics()
	addrs := make([]string, 2)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		p := cluster.NewPeer()
		p.Tracer = pm.ClusterTracer()
		go p.Serve(ln)
		t.Cleanup(func() { p.Close() })
		addrs[i] = ln.Addr().String()
	}
	_, c := newTestServer(t, server.Config{Workers: 2, QueueDepth: 16, ClusterPeers: addrs})
	ctx := context.Background()
	inst := genInstance(t, 80, 240, 3, 511)
	opts := api.SolveOptions{Engine: api.EngineCluster, Epsilon: 0.5}

	first, err := c.Solve(ctx, inst, opts)
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Fatal("first solve cannot be cached")
	}
	if s := pm.Snapshot(); s.PeerCacheMisses != 2 || s.PeerCacheHits != 0 {
		t.Fatalf("first contact: hits=%d misses=%d, want 0/2", s.PeerCacheHits, s.PeerCacheMisses)
	}

	tracedOpts := opts
	tracedOpts.Trace = true
	traced, err := c.Solve(ctx, inst, tracedOpts)
	if err != nil {
		t.Fatal(err)
	}
	if traced.Cached {
		t.Fatal("traced solve served from the result cache; its report must describe a real run")
	}
	if traced.Report == nil || traced.Report.Engine != api.EngineCluster {
		t.Fatalf("traced cluster solve returned no cluster report: %+v", traced.Report)
	}
	if !reflect.DeepEqual(traced.Cover, first.Cover) || traced.Weight != first.Weight {
		t.Fatal("traced solve computed a different cover")
	}
	// The bypass is only for the coordinator's result cache: the peers'
	// instance fabric still recognized the hash and skipped the re-sync.
	if s := pm.Snapshot(); s.PeerCacheHits != 2 || s.PeerCacheMisses != 2 {
		t.Fatalf("traced repeat: hits=%d misses=%d, want 2/2", s.PeerCacheHits, s.PeerCacheMisses)
	}

	// The traced result must not have displaced or polluted the cached one.
	again, err := c.Solve(ctx, inst, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached {
		t.Fatal("untraced repeat missed the cache the first solve populated")
	}
	if again.Report != nil {
		t.Fatal("traced report leaked into the result cache")
	}
}
