package main

import (
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"distcover"
	"distcover/client"
	"distcover/server/api"
)

// TestCrashRecovery is the durability chaos test: it SIGKILLs a coverd
// mid-update-stream and proves the restarted process rehydrates the
// session from its WAL to a state bit-identical to a run that never
// crashed. The kill races a live update on purpose — any acknowledged
// prefix of the stream must survive, an unacknowledged in-flight update
// may or may not, and the server's recovered update count says which; the
// test resumes the stream from there and the final state must still match
// the uninterrupted reference exactly. Gated behind COVERD_CRASH_E2E=1
// because it compiles and forks.
func TestCrashRecovery(t *testing.T) {
	if os.Getenv("COVERD_CRASH_E2E") != "1" {
		t.Skip("set COVERD_CRASH_E2E=1 to run the crash-recovery chaos test")
	}
	bin := filepath.Join(t.TempDir(), "coverd")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		t.Fatalf("build coverd: %v", err)
	}
	walDir := t.TempDir()

	// Deterministic instance and update stream, same LCG as the cluster E2E.
	state := uint64(0xDECAF)
	next := func(bound int) int {
		state = state*6364136223846793005 + 1442695040888963407
		return int((state >> 33) % uint64(bound))
	}
	weights := make([]int64, 200)
	for i := range weights {
		weights[i] = int64(1 + next(300))
	}
	edges := make([][]int, 600)
	for e := range edges {
		edges[e] = []int{next(200), next(200), next(200)}
	}
	inst, err := distcover.NewInstance(weights, edges)
	if err != nil {
		t.Fatal(err)
	}
	const batches = 16
	deltas := make([]api.SessionDelta, batches)
	n := 200
	for b := range deltas {
		deltas[b].Weights = []int64{int64(10 + b), int64(20 + b)}
		for i := 0; i < 30; i++ {
			deltas[b].Edges = append(deltas[b].Edges, []int{next(n + 2), next(n), next(n)})
		}
		n += 2
	}

	// The uninterrupted reference: a library session that sees the whole
	// stream with no restart in between.
	ref, err := distcover.NewSession(inst, distcover.WithEpsilon(0.5), distcover.WithSolverParallelism(0))
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

	cv := startCoverd(t, bin, "-addr", "127.0.0.1:0", "-wal-dir", walDir)
	c := client.New("http://" + cv.httpAddr)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	si, err := c.CreateSession(ctx, inst, api.SolveOptions{Engine: api.EngineFlat, Epsilon: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	const acked = 3
	for _, d := range deltas[:acked] {
		if _, err := c.UpdateSession(ctx, si.ID, d); err != nil {
			t.Fatal(err)
		}
	}
	// Keep streaming in the background and SIGKILL the daemon while updates
	// are in flight. Errors past this point are expected — the process dies
	// under the client.
	go func() {
		for _, d := range deltas[acked:] {
			if _, err := c.UpdateSession(ctx, si.ID, d); err != nil {
				return
			}
		}
	}()
	time.Sleep(10 * time.Millisecond)
	cv.kill(t)

	cv2 := startCoverd(t, bin, "-addr", "127.0.0.1:0", "-wal-dir", walDir)
	c2 := client.New("http://" + cv2.httpAddr)
	if got := metricInt(t, scrapeMetrics(t, cv2.httpAddr), "coverd_sessions_recovered_total"); got != 1 {
		t.Fatalf("sessions_recovered = %d, want 1", got)
	}
	list, err := c2.Sessions(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].ID != si.ID || !list[0].Recovered {
		t.Fatalf("session list after crash: %+v, want recovered %s", list, si.ID)
	}
	applied := list[0].Updates
	if applied < acked || applied > batches {
		t.Fatalf("recovered session has %d updates, want between %d (acked prefix) and %d", applied, acked, batches)
	}
	t.Logf("crash landed after %d/%d durable updates; resuming stream", applied, batches)

	// Resume the stream where the WAL left off; the end state must be
	// indistinguishable from the run that never crashed.
	final := list[0]
	for b := applied; b < batches; b++ {
		up, err := c2.UpdateSession(ctx, si.ID, deltas[b])
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
		t.Fatalf("recovered run diverges from uninterrupted run:\n%+v\nvs\n%+v", final.Result, want.Solution)
	}
	if final.Updates != want.Updates {
		t.Fatalf("%d updates, want %d", final.Updates, want.Updates)
	}
	if final.CertifiedBound != want.CertifiedBound {
		t.Fatalf("certified bound %g, want %g", final.CertifiedBound, want.CertifiedBound)
	}
	if final.Result.RatioBound > final.CertifiedBound*(1+1e-9) {
		t.Fatalf("ratio %g exceeds the f(1+ε) certificate %g", final.Result.RatioBound, final.CertifiedBound)
	}

	// A second restart must replay the resumed updates too — recovery is
	// idempotent over its own output.
	cv2.kill(t)
	cv3 := startCoverd(t, bin, "-addr", "127.0.0.1:0", "-wal-dir", walDir)
	c3 := client.New("http://" + cv3.httpAddr)
	again, err := c3.Session(ctx, si.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Recovered || again.Updates != want.Updates ||
		!reflect.DeepEqual(again.Result.Cover, want.Solution.Cover) ||
		again.Result.Weight != want.Solution.Weight {
		t.Fatalf("second recovery diverges: %+v", again)
	}
}
