package distcover_test

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"

	"distcover"
)

// snapInstance builds a random instance and a stream of deltas with a
// deterministic generator.
func snapInstance(t *testing.T, seed int64, n, m int) (*distcover.Instance, []distcover.Delta) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	weights := make([]int64, n)
	for i := range weights {
		weights[i] = 1 + rng.Int63n(100)
	}
	edges := make([][]int, m)
	for i := range edges {
		k := 2 + rng.Intn(2)
		e := map[int]bool{}
		for len(e) < k {
			e[rng.Intn(n)] = true
		}
		edges[i] = make([]int, 0, k)
		for v := range e {
			edges[i] = append(edges[i], v)
		}
	}
	inst, err := distcover.NewInstance(weights, edges)
	if err != nil {
		t.Fatal(err)
	}
	var deltas []distcover.Delta
	total := n
	for b := 0; b < 3; b++ {
		var d distcover.Delta
		for i := 0; i < 10; i++ {
			d.Weights = append(d.Weights, 1+rng.Int63n(100))
		}
		grown := total + len(d.Weights)
		for i := 0; i < 25; i++ {
			k := 2 + rng.Intn(2)
			e := map[int]bool{}
			for len(e) < k {
				e[rng.Intn(grown)] = true
			}
			var edge []int
			for v := range e {
				edge = append(edge, v)
			}
			d.Edges = append(d.Edges, edge)
		}
		total = grown
		deltas = append(deltas, d)
	}
	return inst, deltas
}

func requireSameState(t *testing.T, label string, a, b distcover.SessionState) {
	t.Helper()
	if a.Hash != b.Hash {
		t.Fatalf("%s: hash %s vs %s", label, a.Hash, b.Hash)
	}
	if !reflect.DeepEqual(a.Solution, b.Solution) {
		t.Fatalf("%s: solutions diverge:\n got %+v\nwant %+v", label, a.Solution, b.Solution)
	}
	if a.Updates != b.Updates || a.CertifiedBound != b.CertifiedBound || a.Stats != b.Stats {
		t.Fatalf("%s: metadata diverges", label)
	}
}

// TestSessionSnapshotRoundTrip: snapshot → JSON → restore reproduces the
// session bit for bit, and updates applied after the restore match updates
// applied to the uninterrupted original.
func TestSessionSnapshotRoundTrip(t *testing.T) {
	inst, deltas := snapInstance(t, 404, 80, 240)
	sess, err := distcover.NewSession(inst, distcover.WithSolverParallelism(0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Update(deltas[0]); err != nil {
		t.Fatal(err)
	}

	snap, err := sess.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var decoded distcover.SessionSnapshot
	if err := json.Unmarshal(blob, &decoded); err != nil {
		t.Fatal(err)
	}
	restored, err := distcover.RestoreSession(&decoded, distcover.WithSolverParallelism(0))
	if err != nil {
		t.Fatal(err)
	}
	requireSameState(t, "after restore", restored.State(), sess.State())

	for i, d := range deltas[1:] {
		sa, err := sess.Update(d)
		if err != nil {
			t.Fatal(err)
		}
		sb, err := restored.Update(d)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(sa, sb) {
			t.Fatalf("update %d stats diverge:\n got %+v\nwant %+v", i, sb, sa)
		}
		requireSameState(t, "after post-restore update", restored.State(), sess.State())
	}
	bound := restored.CertifiedBound()
	if sol := restored.Solution(); sol.RatioBound > bound {
		t.Fatalf("certificate violated after restore: %f > %f", sol.RatioBound, bound)
	}
}

// TestSessionSnapshotEngineSwap: a snapshot taken on one engine restores
// onto another and continues bit-identically — the property that makes
// flat-restore-then-SetClusterPeers recovery sound.
func TestSessionSnapshotEngineSwap(t *testing.T) {
	inst, deltas := snapInstance(t, 77, 60, 180)
	simSess, err := distcover.NewSession(inst)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := simSess.Update(deltas[0]); err != nil {
		t.Fatal(err)
	}
	snap, err := simSess.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	flatSess, err := distcover.RestoreSession(snap, distcover.WithSolverParallelism(0))
	if err != nil {
		t.Fatal(err)
	}
	congSess, err := distcover.RestoreSession(snap, distcover.WithSequentialEngine())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range deltas[1:] {
		if _, err := simSess.Update(d); err != nil {
			t.Fatal(err)
		}
		if _, err := flatSess.Update(d); err != nil {
			t.Fatal(err)
		}
		if _, err := congSess.Update(d); err != nil {
			t.Fatal(err)
		}
	}
	simState := simSess.State()
	requireSameState(t, "flat vs sim", flatSess.State(), simState)
	st := congSess.State()
	// The message protocol's round accounting differs from the lockstep
	// simulator's; covers, duals and certificate must still match exactly.
	st.Congest = nil
	st.Solution.Rounds = simState.Solution.Rounds
	requireSameState(t, "congest vs sim", st, simState)
	if congSess.Congest() == nil {
		t.Fatal("congest session restored from sim snapshot lost its metrics")
	}
}

// TestRestoreSessionValidation: malformed snapshots are rejected with
// errors, not panics.
func TestRestoreSessionValidation(t *testing.T) {
	if _, err := distcover.RestoreSession(nil); err == nil {
		t.Fatal("nil snapshot accepted")
	}
	bad := &distcover.SessionSnapshot{
		Weights: []int64{1, 2}, InCover: []bool{true}, Load: []float64{0, 0},
	}
	if _, err := distcover.RestoreSession(bad); err == nil {
		t.Fatal("mis-sized in_cover accepted")
	}
	bad = &distcover.SessionSnapshot{
		Weights: []int64{1, 2}, InCover: []bool{false, false}, Load: []float64{0, 0},
		Edges: [][]int{{0, 1}}, Dual: nil,
	}
	if _, err := distcover.RestoreSession(bad); err == nil {
		t.Fatal("mis-sized dual accepted")
	}
	bad = &distcover.SessionSnapshot{
		Weights: []int64{1, -5}, InCover: []bool{false, false}, Load: []float64{0, 0},
	}
	if _, err := distcover.RestoreSession(bad); err == nil {
		t.Fatal("invalid instance accepted")
	}
}
