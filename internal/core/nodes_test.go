package core

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"distcover/internal/congest"
	"distcover/internal/hypergraph"
	"distcover/internal/lp"
)

func runBoth(t *testing.T, g *hypergraph.Hypergraph, opts Options) (*Result, *Result, congest.Metrics) {
	t.Helper()
	lockstep, err := Run(g, opts, nil)
	if err != nil {
		t.Fatalf("lockstep Run: %v", err)
	}
	cong, metrics, err := RunCongest(g, opts, nil, congest.SequentialEngine{}, congest.Options{Validate: true})
	if err != nil {
		t.Fatalf("RunCongest: %v", err)
	}
	return lockstep, cong, metrics
}

// requireSameResult asserts the lockstep and congest paths agree exactly:
// same cover, same duals bit for bit, same iteration count and levels.
func requireSameResult(t *testing.T, a, b *Result) {
	t.Helper()
	if a.Iterations != b.Iterations {
		t.Errorf("iterations: lockstep %d vs congest %d", a.Iterations, b.Iterations)
	}
	if a.MaxLevel != b.MaxLevel {
		t.Errorf("max level: lockstep %d vs congest %d", a.MaxLevel, b.MaxLevel)
	}
	if a.CoverWeight != b.CoverWeight {
		t.Errorf("cover weight: lockstep %d vs congest %d", a.CoverWeight, b.CoverWeight)
	}
	if len(a.Cover) != len(b.Cover) {
		t.Fatalf("cover sizes: lockstep %d vs congest %d", len(a.Cover), len(b.Cover))
	}
	for i := range a.Cover {
		if a.Cover[i] != b.Cover[i] {
			t.Fatalf("covers differ at position %d: %d vs %d", i, a.Cover[i], b.Cover[i])
		}
	}
	if len(a.Dual) != len(b.Dual) {
		t.Fatalf("dual lengths differ")
	}
	for e := range a.Dual {
		if a.Dual[e] != b.Dual[e] {
			t.Fatalf("δ(%d) differs: lockstep %v vs congest %v", e, a.Dual[e], b.Dual[e])
		}
	}
}

func TestCongestMatchesLockstep(t *testing.T) {
	tests := []struct {
		name string
		opts Options
	}{
		{"default", DefaultOptions()},
		{"single-level", func() Options { o := DefaultOptions(); o.Variant = VariantSingleLevel; return o }()},
		{"local alpha", func() Options { o := DefaultOptions(); o.Alpha = AlphaLocal; return o }()},
		{"fixed alpha", func() Options { o := DefaultOptions(); o.Alpha = AlphaFixed; o.FixedAlpha = 8; return o }()},
		{"small epsilon", func() Options { o := DefaultOptions(); o.Epsilon = 0.05; return o }()},
		{"f-approx", func() Options { o := DefaultOptions(); o.FApprox = true; return o }()},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			for _, f := range []int{1, 2, 4} {
				g, err := hypergraph.UniformRandom(40, 80, f,
					hypergraph.GenConfig{Seed: 7 + int64(f), Dist: hypergraph.WeightUniformRange, MaxWeight: 30})
				if err != nil {
					t.Fatal(err)
				}
				lockstep, cong, _ := runBoth(t, g, tt.opts)
				requireSameResult(t, lockstep, cong)
			}
		})
	}
}

func TestCongestMatchesLockstepProperty(t *testing.T) {
	prop := func(seed int64, nRaw, mRaw, fRaw uint8) bool {
		n := int(nRaw%30) + 3
		f := int(fRaw%3) + 1
		if f > n {
			f = n
		}
		m := int(mRaw%50) + 1
		g, err := hypergraph.UniformRandom(n, m, f,
			hypergraph.GenConfig{Seed: seed, Dist: hypergraph.WeightExponential, MaxWeight: 1 << 12})
		if err != nil {
			return false
		}
		lockstep, err := Run(g, DefaultOptions(), nil)
		if err != nil {
			return false
		}
		cong, _, err := RunCongest(g, DefaultOptions(), nil, congest.SequentialEngine{}, congest.Options{Validate: true})
		if err != nil {
			return false
		}
		if lockstep.Iterations != cong.Iterations || lockstep.CoverWeight != cong.CoverWeight {
			return false
		}
		for e := range lockstep.Dual {
			if lockstep.Dual[e] != cong.Dual[e] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestCongestShardedEngineAgrees: the sharded engine, stepping shards on
// concurrent workers, reproduces the sequential reference's result and
// CONGEST metrics exactly.
func TestCongestShardedEngineAgrees(t *testing.T) {
	g, err := hypergraph.UniformRandom(30, 60, 3,
		hypergraph.GenConfig{Seed: 11, Dist: hypergraph.WeightUniformRange, MaxWeight: 25})
	if err != nil {
		t.Fatal(err)
	}
	seqRes, seqM, err := RunCongest(g, DefaultOptions(), nil, congest.SequentialEngine{}, congest.Options{Validate: true})
	if err != nil {
		t.Fatal(err)
	}
	shRes, shM, err := RunCongest(g, DefaultOptions(), nil, congest.ShardedEngine{Shards: 3}, congest.Options{Validate: true})
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, seqRes, shRes)
	if seqM != shM {
		t.Errorf("metrics differ: sequential %+v vs sharded %+v", seqM, shM)
	}
}

func TestCongestRoundsMatchIterationFormula(t *testing.T) {
	// Appendix B: 2 rounds for iteration 0 plus 2 per iteration; global
	// termination costs at most one extra round for the final covered
	// notifications.
	g, err := hypergraph.UniformRandom(50, 100, 3,
		hypergraph.GenConfig{Seed: 2, Dist: hypergraph.WeightUniformRange, MaxWeight: 40})
	if err != nil {
		t.Fatal(err)
	}
	lockstep, cong, metrics := runBoth(t, g, DefaultOptions())
	want := 2 + 2*lockstep.Iterations
	if metrics.Rounds < want || metrics.Rounds > want+1 {
		t.Errorf("congest rounds = %d, want %d or %d", metrics.Rounds, want, want+1)
	}
	if cong.Rounds != metrics.Rounds {
		t.Errorf("Result.Rounds = %d != metrics %d", cong.Rounds, metrics.Rounds)
	}
}

func TestCongestMessageSizesWithinLogBudget(t *testing.T) {
	// E8: the protocol is a real CONGEST protocol — every message fits in
	// O(log n) bits even with maximal weights and degrees.
	g, err := hypergraph.UniformRandom(200, 500, 4,
		hypergraph.GenConfig{Seed: 9, Dist: hypergraph.WeightExponential, MaxWeight: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	budget := congest.LogBudget(g.NumVertices() + g.NumEdges())
	_, metrics, err := RunCongest(g, DefaultOptions(), nil, congest.SequentialEngine{},
		congest.Options{Validate: true, BitBudget: budget})
	if err != nil {
		t.Fatalf("run with enforced budget: %v", err)
	}
	if metrics.MaxMessageBits > budget {
		t.Errorf("max message = %d bits > budget %d", metrics.MaxMessageBits, budget)
	}
	if metrics.MaxMessageBits == 0 {
		t.Error("no message sizes recorded")
	}
}

func TestCongestResultIsValidCover(t *testing.T) {
	g, err := hypergraph.UniformRandom(60, 150, 3,
		hypergraph.GenConfig{Seed: 13, Dist: hypergraph.WeightUniformRange, MaxWeight: 12})
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := RunCongest(g, DefaultOptions(), nil, congest.SequentialEngine{}, congest.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !g.IsCover(res.Cover) {
		t.Fatal("congest result is not a cover")
	}
	if err := lp.CheckEdgePacking(g, res.Dual, 1e-9); err != nil {
		t.Errorf("dual infeasible: %v", err)
	}
	bound := (float64(g.Rank()) + 1) * res.DualValue
	if float64(res.CoverWeight) > bound*(1+1e-9) {
		t.Errorf("approximation bound violated: %d > %f", res.CoverWeight, bound)
	}
	if math.IsNaN(res.RatioBound) || res.RatioBound <= 0 {
		t.Errorf("RatioBound = %f", res.RatioBound)
	}
}

func TestCongestRejectsExactMode(t *testing.T) {
	g := hypergraph.MustNew([]int64{1, 1}, [][]hypergraph.VertexID{{0, 1}})
	opts := DefaultOptions()
	opts.Exact = true
	_, _, err := RunCongest(g, opts, nil, congest.SequentialEngine{}, congest.Options{})
	if !errors.Is(err, ErrExactCongest) {
		t.Errorf("err = %v, want ErrExactCongest", err)
	}
}

func TestCongestRejectsBadOptions(t *testing.T) {
	g := hypergraph.MustNew([]int64{1, 1}, [][]hypergraph.VertexID{{0, 1}})
	_, _, err := RunCongest(g, Options{}, nil, congest.SequentialEngine{}, congest.Options{})
	if !errors.Is(err, ErrBadOptions) {
		t.Errorf("err = %v, want ErrBadOptions", err)
	}
}

func TestCongestEdgelessAndIsolated(t *testing.T) {
	// Isolated vertices terminate immediately; instance with no edges
	// finishes in one round.
	g := hypergraph.MustNew([]int64{1, 2, 3}, nil)
	res, metrics, err := RunCongest(g, DefaultOptions(), nil, congest.SequentialEngine{}, congest.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cover) != 0 || res.Iterations != 0 {
		t.Errorf("edgeless congest result = (|C|=%d, iters=%d)", len(res.Cover), res.Iterations)
	}
	if metrics.Rounds != 1 {
		t.Errorf("rounds = %d, want 1", metrics.Rounds)
	}
}

func TestCongestStar(t *testing.T) {
	g, err := hypergraph.Star(32, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	lockstep, cong, _ := runBoth(t, g, DefaultOptions())
	requireSameResult(t, lockstep, cong)
	if !g.IsCover(cong.Cover) {
		t.Error("star not covered")
	}
}
