package main

import (
	"context"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"distcover"
	"distcover/client"
	"distcover/internal/ring"
	"distcover/server/api"
)

// TestRingFailoverE2E is the coordinator-ring CI job: three real coverd
// coordinators joined by -ring over a shared -wal-dir root, plus two
// cluster peer workers behind them. It proves, across processes:
//
//   - every instance is solved by exactly the coordinator its content hash
//     maps to (zero forwards under a ring-aware client), and every session
//     is owned by exactly one coordinator;
//   - a misrouted request succeeds with exactly one extra hop;
//   - the ring composes with the cluster engine (bit-identical to flat);
//   - SIGKILLing a coordinator mid-update-stream loses nothing durable:
//     the surviving live owner adopts the session from the dead member's
//     WAL subdirectory, and resuming the stream from the reported update
//     count converges bit-identically to an uninterrupted library run;
//   - every process keeps serving well-formed /metrics, with the
//     coverd_ring_* families ticking on the survivors.
//
// The client side is goroutine-leak-checked. Gated behind COVERD_RING_E2E=1
// because it compiles and forks; run it under -race.
func TestRingFailoverE2E(t *testing.T) {
	if os.Getenv("COVERD_RING_E2E") != "1" {
		t.Skip("set COVERD_RING_E2E=1 to run the coordinator-ring failover E2E")
	}
	goroutinesBefore := runtime.NumGoroutine()

	bin := filepath.Join(t.TempDir(), "coverd")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		t.Fatalf("build coverd: %v", err)
	}
	walRoot := t.TempDir()

	// Ring members must know each other's HTTP addresses at startup, so the
	// ports are reserved up front instead of the usual :0 discovery.
	addrs := freeAddrs(t, 3)
	membership := strings.Join(addrs, ",")
	peer1 := startCoverd(t, bin, "-addr", "127.0.0.1:0", "-peer-listen", "127.0.0.1:0")
	peer2 := startCoverd(t, bin, "-addr", "127.0.0.1:0", "-peer-listen", "127.0.0.1:0")
	coords := make([]*coverdProc, 3)
	for i, a := range addrs {
		coords[i] = startCoverd(t, bin, "-addr", a,
			"-ring", membership, "-ring-self", a,
			"-wal-dir", walRoot,
			"-peers", peer1.peerAddr+","+peer2.peerAddr)
	}
	localRing, err := ring.New(addrs, 0)
	if err != nil {
		t.Fatal(err)
	}
	coordAt := func(addr string) *coverdProc {
		for i, a := range addrs {
			if a == addr {
				return coords[i]
			}
		}
		t.Fatalf("no coordinator at %q", addr)
		return nil
	}

	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()

	// Every coordinator advertises the same ring, and each reports itself.
	for i, cd := range coords {
		rc := client.New("http://" + cd.httpAddr)
		on, err := rc.DiscoverRing(ctx)
		if err != nil || !on {
			t.Fatalf("coordinator %d: DiscoverRing on=%v err=%v", i, on, err)
		}
		if got := rc.RingMembers(); !reflect.DeepEqual(got, localRing.Members()) {
			t.Fatalf("coordinator %d membership %v, want %v", i, got, localRing.Members())
		}
		if g := metricInt(t, scrapeMetrics(t, cd.httpAddr), "coverd_ring_members"); g != 3 {
			t.Fatalf("coordinator %d ring_members gauge = %d, want 3", i, g)
		}
	}

	// Deterministic workload, same LCG family as the other E2Es.
	state := uint64(0xB00C)
	next := func(bound int) int {
		state = state*6364136223846793005 + 1442695040888963407
		return int((state >> 33) % uint64(bound))
	}
	genInst := func(n, m int) *distcover.Instance {
		weights := make([]int64, n)
		for i := range weights {
			weights[i] = int64(1 + next(300))
		}
		edges := make([][]int, m)
		for e := range edges {
			edges[e] = []int{next(n), next(n), next(n)}
		}
		inst, err := distcover.NewInstance(weights, edges)
		if err != nil {
			t.Fatal(err)
		}
		return inst
	}

	// Exactly-one-owner for instances: a ring-aware client solves 12
	// distinct instances; each must be solved by precisely the coordinator
	// its hash maps to, with zero ring traffic.
	rc := client.New("http://" + coords[0].httpAddr)
	if on, err := rc.DiscoverRing(ctx); err != nil || !on {
		t.Fatalf("DiscoverRing: on=%v err=%v", on, err)
	}
	wantSolves := map[string]int{}
	var firstInst *distcover.Instance
	for i := 0; i < 12; i++ {
		inst := genInst(120, 300)
		if firstInst == nil {
			firstInst = inst
		}
		if _, err := rc.Solve(ctx, inst, api.SolveOptions{Engine: api.EngineFlat, Epsilon: 0.5}); err != nil {
			t.Fatalf("solve %d: %v", i, err)
		}
		wantSolves[localRing.Owner(inst.Hash())]++
	}
	for i, cd := range coords {
		text := scrapeMetrics(t, cd.httpAddr)
		if got, want := metricInt(t, text, `coverd_solves_total{outcome="ok"}`), wantSolves[addrs[i]]; got != want {
			t.Fatalf("coordinator %d solved %d instances, want %d (its exact arc of the ring)", i, got, want)
		}
		for _, fam := range []string{"coverd_ring_forwards_total", "coverd_ring_redirects_total", "coverd_ring_hops_total"} {
			if v := metricInt(t, text, fam); v != 0 {
				t.Fatalf("coordinator %d %s = %d under a ring-aware client, want 0", i, fam, v)
			}
		}
	}

	// Misrouted solve via a plain client pinned to a non-owner: exactly one
	// extra hop, and the owner's cache answers (it solved it above).
	owner := localRing.Owner(firstInst.Hash())
	var wrong *coverdProc
	for i, a := range addrs {
		if a != owner {
			wrong = coords[i]
			break
		}
	}
	res, err := client.New("http://"+wrong.httpAddr).Solve(ctx, firstInst, api.SolveOptions{Engine: api.EngineFlat, Epsilon: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Cached {
		t.Fatal("misrouted solve was not served from its owner's cache: it did not land on the owner")
	}
	if f := metricInt(t, scrapeMetrics(t, wrong.httpAddr), "coverd_ring_forwards_total"); f != 1 {
		t.Fatalf("sender ring_forwards_total = %d, want exactly 1", f)
	}
	if h := metricInt(t, scrapeMetrics(t, coordAt(owner).httpAddr), "coverd_ring_hops_total"); h != 1 {
		t.Fatalf("owner ring_hops_total = %d, want exactly 1 (one extra hop)", h)
	}

	// Ring × cluster: a cluster-engine solve through the ring matches flat.
	clInst := genInst(200, 500)
	flatRes, err := rc.Solve(ctx, clInst, api.SolveOptions{Engine: api.EngineFlat})
	if err != nil {
		t.Fatal(err)
	}
	clRes, err := rc.Solve(ctx, clInst, api.SolveOptions{Engine: api.EngineCluster, NoCache: true})
	if err != nil {
		t.Fatalf("cluster solve through the ring: %v", err)
	}
	if !reflect.DeepEqual(clRes.Cover, flatRes.Cover) || clRes.Weight != flatRes.Weight {
		t.Fatal("cluster solve through the ring diverges from flat")
	}

	// Sessions: one created on each coordinator. Each id must map back to
	// its creator, and the ring-wide listing must see each exactly once.
	sessInst := genInst(200, 600)
	sessIDs := make([]string, 3)
	for i, cd := range coords {
		si, err := client.New("http://"+cd.httpAddr).CreateSession(ctx, sessInst,
			api.SolveOptions{Engine: api.EngineFlat, Epsilon: 0.5})
		if err != nil {
			t.Fatalf("create on coordinator %d: %v", i, err)
		}
		if got := localRing.Owner(si.ID); got != addrs[i] {
			t.Fatalf("session %s created on %s but owned by %s", si.ID, addrs[i], got)
		}
		sessIDs[i] = si.ID
	}
	listed, err := rc.Sessions(ctx)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, s := range listed {
		counts[s.ID]++
	}
	for i, id := range sessIDs {
		if counts[id] != 1 {
			t.Fatalf("session %d (%s) listed %d times across the ring, want exactly 1", i, id, counts[id])
		}
	}

	// ── Chaos: SIGKILL coordinator 0 mid-update-stream. ──
	// The uninterrupted reference: a library session over the same stream.
	const batches = 16
	deltas := make([]api.SessionDelta, batches)
	n := 200
	for b := range deltas {
		deltas[b].Weights = []int64{int64(10 + b), int64(20 + b)}
		// Batches big enough that the stream is still in flight when the
		// kill lands a few ms in.
		for i := 0; i < 120; i++ {
			deltas[b].Edges = append(deltas[b].Edges, []int{next(n + 2), next(n), next(n)})
		}
		n += 2
	}
	ref, err := distcover.NewSession(sessInst, distcover.WithEpsilon(0.5), distcover.WithSolverParallelism(0))
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	for _, d := range deltas {
		if _, err := ref.Update(distcover.Delta{Weights: d.Weights, Edges: d.Edges}); err != nil {
			t.Fatal(err)
		}
	}
	want := ref.State()

	victimID := sessIDs[0] // owned by coordinator 0
	const acked = 3
	for _, d := range deltas[:acked] {
		if _, err := rc.UpdateSession(ctx, victimID, d); err != nil {
			t.Fatal(err)
		}
	}
	// Stream the rest in the background and SIGKILL the owner while an
	// update is in flight. The ring-aware client does NOT replay an update
	// that died mid-request (ambiguous outcome), so the goroutine stops at
	// the first error and the recovered update count says where to resume.
	var streamWG sync.WaitGroup
	streamWG.Add(1)
	go func() {
		defer streamWG.Done()
		for _, d := range deltas[acked:] {
			if _, err := rc.UpdateSession(ctx, victimID, d); err != nil {
				return
			}
		}
	}()
	time.Sleep(10 * time.Millisecond)
	coords[0].kill(t)
	streamWG.Wait()

	// A survivor-pointed ring-aware client finds the session: its first
	// attempt dials the dead owner, the hop-marked fallback lands on a
	// survivor, and the live owner adopts from the dead member's WAL dir.
	vc := client.New("http://" + coords[1].httpAddr)
	if on, err := vc.DiscoverRing(ctx); err != nil || !on {
		t.Fatalf("survivor DiscoverRing: on=%v err=%v", on, err)
	}
	adopted, err := vc.Session(ctx, victimID)
	if err != nil {
		t.Fatalf("survivors did not take over the session: %v", err)
	}
	if !adopted.Recovered {
		t.Fatal("adopted session not marked Recovered")
	}
	applied := adopted.Updates
	if applied < acked || applied > batches {
		t.Fatalf("adopted session has %d updates, want between %d (acked prefix) and %d", applied, acked, batches)
	}
	t.Logf("kill landed after %d/%d durable updates; resuming on the survivors", applied, batches)

	final := adopted
	for b := applied; b < batches; b++ {
		up, err := vc.UpdateSession(ctx, victimID, deltas[b])
		if err != nil {
			t.Fatalf("resume batch %d: %v", b, err)
		}
		final = up.Session
	}
	if final.InstanceHash != want.Hash {
		t.Fatalf("instance hash %s, want %s", final.InstanceHash, want.Hash)
	}
	if !reflect.DeepEqual(final.Result.Cover, want.Solution.Cover) ||
		final.Result.Weight != want.Solution.Weight ||
		final.Result.DualLowerBound != want.Solution.DualLowerBound {
		t.Fatalf("takeover run diverges from uninterrupted run:\n%+v\nvs\n%+v", final.Result, want.Solution)
	}
	if final.Updates != want.Updates || final.CertifiedBound != want.CertifiedBound {
		t.Fatalf("updates/bound %d/%g, want %d/%g", final.Updates, final.CertifiedBound, want.Updates, want.CertifiedBound)
	}

	// Survivors: takeover and down-marking visible in coverd_ring_*, the
	// untouched sessions still each owned exactly once, exposition intact
	// on every surviving process (peers included).
	takeovers, downs := 0, 0
	for _, cd := range coords[1:] {
		text := scrapeMetrics(t, cd.httpAddr)
		takeovers += metricInt(t, text, "coverd_ring_takeovers_total")
		downs += metricInt(t, text, "coverd_ring_member_down_total")
	}
	if takeovers < 1 {
		t.Fatalf("ring_takeovers_total across survivors = %d, want ≥ 1", takeovers)
	}
	if downs < 1 {
		t.Fatalf("ring_member_down_total across survivors = %d, want ≥ 1", downs)
	}
	listed, err = vc.Sessions(ctx)
	if err != nil {
		t.Fatal(err)
	}
	counts = map[string]int{}
	for _, s := range listed {
		counts[s.ID]++
	}
	for _, id := range sessIDs {
		if counts[id] != 1 {
			t.Fatalf("after takeover session %s listed %d times, want exactly 1", id, counts[id])
		}
	}
	for _, proc := range []struct {
		name string
		p    *coverdProc
	}{{"coordinator1", coords[1]}, {"coordinator2", coords[2]}, {"peer1", peer1}, {"peer2", peer2}} {
		checkExposition(t, proc.name, scrapeMetrics(t, proc.p.httpAddr))
	}

	// Client-side goroutine hygiene: kill everything, drop idle keep-alive
	// connections, and require the count to return to the baseline.
	for _, p := range []*coverdProc{coords[1], coords[2], peer1, peer2} {
		p.kill(t)
	}
	if tr, ok := http.DefaultTransport.(*http.Transport); ok {
		tr.CloseIdleConnections()
	}
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > goroutinesBefore && time.Now().Before(deadline) {
		time.Sleep(50 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > goroutinesBefore {
		buf := make([]byte, 1<<20)
		m := runtime.Stack(buf, true)
		t.Fatalf("goroutines leaked on the client side: %d before, %d after\n%s",
			goroutinesBefore, now, buf[:m])
	}
}

// freeAddrs reserves n distinct loopback host:port addresses by binding
// and immediately releasing them. The tiny bind race is the standard
// price for processes that must know each other's addresses at startup.
func freeAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}
	return addrs
}
