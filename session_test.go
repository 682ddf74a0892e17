package distcover

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
)

func sessionBaseInstance(t *testing.T) *Instance {
	t.Helper()
	inst, err := NewInstance(
		[]int64{7, 3, 9, 2, 8, 5, 4, 6, 1, 10},
		[][]int{{0, 1, 2}, {2, 3, 4}, {4, 5, 6}, {6, 7, 8}, {8, 9, 0}},
	)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func TestSessionBasicFlow(t *testing.T) {
	inst := sessionBaseInstance(t)
	s, err := NewSession(inst, WithEpsilon(0.5))
	if err != nil {
		t.Fatal(err)
	}
	base, err := Solve(inst, WithEpsilon(0.5))
	if err != nil {
		t.Fatal(err)
	}
	sol := s.Solution()
	if sol.Weight != base.Weight || sol.DualLowerBound != base.DualLowerBound {
		t.Fatalf("initial session state (%d, %g) != Solve (%d, %g)",
			sol.Weight, sol.DualLowerBound, base.Weight, base.DualLowerBound)
	}

	st, err := s.Update(Delta{
		Weights: []int64{4, 2},
		Edges:   [][]int{{1, 3, 10}, {10, 11}, {0, 5}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.NewVertices != 2 || st.NewEdges != 3 {
		t.Fatalf("delta accounting: %+v", st)
	}
	if st.CoveredOnArrival+st.ResidualEdges != 3 {
		t.Fatalf("every new edge must be covered or residual: %+v", st)
	}
	sol = s.Solution()
	if !s.Instance().IsCover(sol.Cover) {
		t.Fatalf("cover %v does not cover updated instance", sol.Cover)
	}
	if sol.RatioBound > s.CertifiedBound()*(1+1e-9) {
		t.Fatalf("ratio %g exceeds certificate %g", sol.RatioBound, s.CertifiedBound())
	}
	if s.Updates() != 1 {
		t.Fatalf("updates = %d", s.Updates())
	}
	if s.Hash() != s.Instance().Hash() {
		t.Fatal("session hash diverges from instance hash")
	}
}

func TestSessionEmptyAndCoveredDeltas(t *testing.T) {
	inst := sessionBaseInstance(t)
	s, err := NewSession(inst)
	if err != nil {
		t.Fatal(err)
	}
	before := s.Solution()
	if _, err := s.Update(Delta{}); err != nil {
		t.Fatal(err)
	}
	cover := before.Cover
	if len(cover) == 0 {
		t.Fatal("expected non-empty cover")
	}
	// An edge containing a cover vertex is absorbed with no solving.
	st, err := s.Update(Delta{Edges: [][]int{{cover[0], (cover[0] + 1) % 10}}})
	if err != nil {
		t.Fatal(err)
	}
	if st.CoveredOnArrival != 1 || st.ResidualEdges != 0 || st.Iterations != 0 {
		t.Fatalf("covered-on-arrival edge triggered work: %+v", st)
	}
	after := s.Solution()
	if after.Weight != before.Weight || after.DualLowerBound != before.DualLowerBound {
		t.Fatal("trivial deltas changed the solution")
	}
}

func TestSessionRejectsBadDelta(t *testing.T) {
	s, err := NewSession(sessionBaseInstance(t))
	if err != nil {
		t.Fatal(err)
	}
	cases := []Delta{
		{Edges: [][]int{{}}},         // empty edge
		{Edges: [][]int{{0, 99}}},    // out of range
		{Weights: []int64{0}},        // non-positive weight
		{Weights: []int64{-3}},       // negative weight
		{Edges: [][]int{{-1, 0}}},    // negative vertex
		{Edges: [][]int{{0, 1}, {}}}, // one bad edge poisons the batch
	}
	before := s.Solution()
	for i, d := range cases {
		if _, err := s.Update(d); err == nil {
			t.Errorf("case %d: bad delta accepted", i)
		}
	}
	after := s.Solution()
	if after.Weight != before.Weight || s.Updates() != 0 {
		t.Fatal("rejected deltas must not change session state")
	}
}

func TestSessionClose(t *testing.T) {
	s, err := NewSession(sessionBaseInstance(t))
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if _, err := s.Update(Delta{Edges: [][]int{{0, 1}}}); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("got %v, want ErrSessionClosed", err)
	}
}

func TestSessionCongestEngines(t *testing.T) {
	inst := sessionBaseInstance(t)
	ref, err := NewSession(inst, WithEpsilon(0.5))
	if err != nil {
		t.Fatal(err)
	}
	deltas := []Delta{
		{Edges: [][]int{{1, 3}, {3, 5, 7}}},
		{Weights: []int64{6}, Edges: [][]int{{9, 10}, {2, 10}}},
		{Edges: [][]int{{5, 9}}},
	}
	for _, d := range deltas {
		if _, err := ref.Update(d); err != nil {
			t.Fatal(err)
		}
	}
	for name, opt := range map[string]Option{
		"sequential": WithSequentialEngine(),
		"sharded":    WithShardedEngine(),
	} {
		s, err := NewSession(inst, WithEpsilon(0.5), opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, d := range deltas {
			if _, err := s.Update(d); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		got, want := s.Solution(), ref.Solution()
		if got.Weight != want.Weight || got.DualLowerBound != want.DualLowerBound {
			t.Errorf("%s session (%d, %g) != simulator session (%d, %g)",
				name, got.Weight, got.DualLowerBound, want.Weight, want.DualLowerBound)
		}
		if s.Congest() == nil || s.Congest().Messages == 0 {
			t.Errorf("%s: congest metrics not accumulated", name)
		}
	}
	if ref.Congest() != nil {
		t.Error("simulator session should have no congest metrics")
	}
}

// TestSessionCongestBudgetFromFullInstance: a residual re-solve on a
// CONGEST engine sizes its O(log n) message budget from the whole
// instance, not from the residual network. Here the residual network has
// three nodes (a 24-bit budget of its own) while its messages carry
// 31-bit weights of the whole 82-node instance.
func TestSessionCongestBudgetFromFullInstance(t *testing.T) {
	const n, w = 40, 1 << 30
	weights := make([]int64, n)
	edges := make([][]int, n-1)
	for v := range weights {
		weights[v] = w
	}
	for e := range edges {
		edges[e] = []int{e, e + 1}
	}
	inst, err := NewInstance(weights, edges)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(inst, WithSequentialEngine())
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.Update(Delta{Weights: []int64{w, w}, Edges: [][]int{{n, n + 1}}})
	if err != nil {
		t.Fatalf("residual update: %v", err)
	}
	if st.ResidualVertices != 2 || st.ResidualEdges != 1 {
		t.Fatalf("residual %d vertices, %d edges; want 2 and 1", st.ResidualVertices, st.ResidualEdges)
	}
}

// TestSessionMatchesFromScratchCertificate drives a session through random
// deltas and checks after every batch that the incremental state stays
// within the certificate of a from-scratch solve of the identical instance.
func TestSessionMatchesFromScratchCertificate(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	inst := sessionBaseInstance(t)
	s, err := NewSession(inst)
	if err != nil {
		t.Fatal(err)
	}
	cur := inst
	n := 10
	for batch := 0; batch < 8; batch++ {
		var d Delta
		for i := 0; i < rng.Intn(2); i++ {
			d.Weights = append(d.Weights, 1+rng.Int63n(20))
		}
		total := n + len(d.Weights)
		for i := 0; i < 1+rng.Intn(4); i++ {
			k := 2 + rng.Intn(2)
			var e []int
			for j := 0; j < k; j++ {
				e = append(e, rng.Intn(total))
			}
			d.Edges = append(d.Edges, e)
		}
		n = total
		if _, err := s.Update(d); err != nil {
			t.Fatal(err)
		}
		cur, err = cur.Extend(d)
		if err != nil {
			t.Fatal(err)
		}
		if s.Hash() != cur.Hash() {
			t.Fatalf("batch %d: hash mismatch", batch)
		}
		scratch, err := Solve(cur)
		if err != nil {
			t.Fatal(err)
		}
		sol := s.Solution()
		if !cur.IsCover(sol.Cover) {
			t.Fatalf("batch %d: invalid incremental cover", batch)
		}
		bound := s.CertifiedBound()
		if sol.RatioBound > bound*(1+1e-9) {
			t.Fatalf("batch %d: ratio %g exceeds certificate %g", batch, sol.RatioBound, bound)
		}
		// Both DualLowerBounds bound OPT from below, so each solution's
		// weight is bounded by its certificate times the other's dual too.
		if w := float64(sol.Weight); w > bound*scratch.DualLowerBound*(1+1e-9) {
			t.Fatalf("batch %d: incremental weight %g vs scratch dual %g breaks certificate %g",
				batch, w, scratch.DualLowerBound, bound)
		}
	}
}

func TestSessionConcurrentUpdates(t *testing.T) {
	s, err := NewSession(sessionBaseInstance(t))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				// Edges over existing vertices only, so batches commute.
				if _, err := s.Update(Delta{Edges: [][]int{{(w + i) % 10, (w + i + 3) % 10}}}); err != nil {
					t.Error(err)
					return
				}
				s.Solution()
				s.Hash()
			}
		}(w)
	}
	wg.Wait()
	if s.Updates() != 40 {
		t.Fatalf("updates = %d, want 40", s.Updates())
	}
	sol := s.Solution()
	if !s.Instance().IsCover(sol.Cover) {
		t.Fatal("invalid cover after concurrent updates")
	}
}
