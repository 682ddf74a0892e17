package core

import (
	"errors"
	"math"
	"testing"

	"distcover/internal/hypergraph"
	"distcover/internal/lp"
)

func defaultRun(t *testing.T, g *hypergraph.Hypergraph) *Result {
	t.Helper()
	res, err := Run(g, DefaultOptions(), nil, 1)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

func checkResult(t *testing.T, g *hypergraph.Hypergraph, res *Result, eps float64) {
	t.Helper()
	if !g.IsCover(res.Cover) {
		t.Fatalf("returned set is not a cover (|C|=%d)", len(res.Cover))
	}
	if got := g.CoverWeight(res.Cover); got != res.CoverWeight {
		t.Errorf("CoverWeight = %d, recomputed %d", res.CoverWeight, got)
	}
	// Dual feasibility (Claim 2) within float tolerance.
	if err := lp.CheckEdgePacking(g, res.Dual, 1e-9); err != nil {
		t.Errorf("dual packing: %v", err)
	}
	// Approximation guarantee (Corollary 3): w(C) ≤ (f+ε)·Σδ.
	f := float64(g.Rank())
	if g.NumEdges() > 0 {
		bound := (f + eps) * res.DualValue
		if float64(res.CoverWeight) > bound*(1+1e-9) {
			t.Errorf("w(C) = %d exceeds (f+ε)·dual = %f", res.CoverWeight, bound)
		}
	}
	// Claim 4: levels stay below z (float mode may overshoot by rounding on
	// the boundary; allow z).
	if res.MaxLevel > res.Z {
		t.Errorf("MaxLevel = %d exceeds z = %d", res.MaxLevel, res.Z)
	}
}

func TestTriangle(t *testing.T) {
	g := hypergraph.MustNew([]int64{1, 2, 3},
		[][]hypergraph.VertexID{{0, 1}, {1, 2}, {0, 2}})
	res := defaultRun(t, g)
	checkResult(t, g, res, 1)
	if res.Iterations == 0 {
		t.Error("expected at least one iteration")
	}
}

func TestStarPrefersCenter(t *testing.T) {
	// Star with cheap center: the (2+ε)-approximation must not pay much
	// more than the center.
	g, err := hypergraph.Star(64, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	res := defaultRun(t, g)
	checkResult(t, g, res, 1)
	// OPT = 1 (the center); guarantee allows ≤ (2+1)·OPT = 3.
	if res.CoverWeight > 3 {
		t.Errorf("star cover weight = %d, want ≤ 3", res.CoverWeight)
	}
}

func TestSingleEdge(t *testing.T) {
	g := hypergraph.MustNew([]int64{5, 7}, [][]hypergraph.VertexID{{0, 1}})
	res := defaultRun(t, g)
	checkResult(t, g, res, 1)
	if res.CoverWeight > 12 {
		t.Errorf("cover weight = %d for a single edge", res.CoverWeight)
	}
}

func TestSingletonEdges(t *testing.T) {
	// f = 1: every vertex with an edge must join; approximation (1+ε).
	g := hypergraph.MustNew([]int64{3, 4, 100},
		[][]hypergraph.VertexID{{0}, {1}})
	res := defaultRun(t, g)
	checkResult(t, g, res, 1)
	if !res.InCover[0] || !res.InCover[1] {
		t.Error("singleton-edge vertices must be covered")
	}
	if res.InCover[2] {
		t.Error("isolated vertex joined the cover")
	}
}

func TestEdgelessGraph(t *testing.T) {
	g := hypergraph.MustNew([]int64{1, 2}, nil)
	res := defaultRun(t, g)
	if len(res.Cover) != 0 || res.Iterations != 0 {
		t.Errorf("edgeless result = (|C|=%d, iters=%d), want empty", len(res.Cover), res.Iterations)
	}
	if res.RatioBound != 1 {
		t.Errorf("RatioBound = %f, want 1 for empty instance", res.RatioBound)
	}
}

func TestRandomHypergraphsAllVariants(t *testing.T) {
	tests := []struct {
		name string
		opts Options
	}{
		{"default", DefaultOptions()},
		{"small epsilon", func() Options { o := DefaultOptions(); o.Epsilon = 0.1; return o }()},
		{"single-level variant", func() Options { o := DefaultOptions(); o.Variant = VariantSingleLevel; return o }()},
		{"local alpha", func() Options { o := DefaultOptions(); o.Alpha = AlphaLocal; return o }()},
		{"fixed alpha 4", func() Options { o := DefaultOptions(); o.Alpha = AlphaFixed; o.FixedAlpha = 4; return o }()},
		{"f-approx", func() Options { o := DefaultOptions(); o.FApprox = true; return o }()},
		{"exact", func() Options { o := DefaultOptions(); o.Exact = true; return o }()},
		{"trace", func() Options { o := DefaultOptions(); o.CollectTrace = true; return o }()},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			for _, f := range []int{2, 3, 5} {
				g, err := hypergraph.UniformRandom(60, 120, f,
					hypergraph.GenConfig{Seed: int64(f), Dist: hypergraph.WeightUniformRange, MaxWeight: 50})
				if err != nil {
					t.Fatal(err)
				}
				res, err := Run(g, tt.opts, nil, 1)
				if err != nil {
					t.Fatalf("Run(f=%d): %v", f, err)
				}
				eps := tt.opts.Epsilon
				if tt.opts.FApprox {
					eps = res.Epsilon
				}
				checkResult(t, g, res, eps)
				if tt.opts.CollectTrace && len(res.Trace) != res.Iterations {
					t.Errorf("trace length %d != iterations %d", len(res.Trace), res.Iterations)
				}
			}
		})
	}
}

func TestSingleLevelVariantIncrementsAtMostOne(t *testing.T) {
	// Corollary 21: with the Appendix C variant no vertex levels up more
	// than once per iteration.
	opts := DefaultOptions()
	opts.Variant = VariantSingleLevel
	opts.CollectTrace = true
	g, err := hypergraph.UniformRandom(80, 200, 3,
		hypergraph.GenConfig{Seed: 5, Dist: hypergraph.WeightExponential, MaxWeight: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(g, opts, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range res.Trace {
		if it.MaxLevelIncrement > 1 {
			t.Fatalf("iteration %d: level increment %d > 1 violates Corollary 21",
				it.Iteration, it.MaxLevelIncrement)
		}
	}
	checkResult(t, g, res, 1)
}

func TestExactModeStrictInvariants(t *testing.T) {
	// In exact arithmetic, Claim 4 holds strictly: levels < z.
	opts := DefaultOptions()
	opts.Exact = true
	for seed := int64(0); seed < 5; seed++ {
		g, err := hypergraph.UniformRandom(25, 50, 3,
			hypergraph.GenConfig{Seed: seed, Dist: hypergraph.WeightUniformRange, MaxWeight: 20})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(g, opts, nil, 1)
		if err != nil {
			t.Fatal(err)
		}
		if res.MaxLevel >= res.Z {
			t.Errorf("seed %d: exact-mode level %d reached z=%d (violates Claim 4)",
				seed, res.MaxLevel, res.Z)
		}
		checkResult(t, g, res, 1)
	}
}

func TestExactAndFloatAgree(t *testing.T) {
	// Float64 and exact arithmetic must produce the same cover on modest
	// instances (the comparisons are never near ulp boundaries for these
	// dyadic-friendly weights). Both must be valid regardless.
	for seed := int64(0); seed < 8; seed++ {
		g, err := hypergraph.UniformRandom(30, 60, 3,
			hypergraph.GenConfig{Seed: seed, Dist: hypergraph.WeightUniformRange, MaxWeight: 16})
		if err != nil {
			t.Fatal(err)
		}
		optsF := DefaultOptions()
		optsF.Alpha = AlphaFixed // identical α in both modes (integer)
		optsF.FixedAlpha = 4
		optsE := optsF
		optsE.Exact = true
		rf, err := Run(g, optsF, nil, 1)
		if err != nil {
			t.Fatal(err)
		}
		re, err := Run(g, optsE, nil, 1)
		if err != nil {
			t.Fatal(err)
		}
		if rf.Iterations != re.Iterations {
			t.Errorf("seed %d: iterations differ float=%d exact=%d", seed, rf.Iterations, re.Iterations)
		}
		if len(rf.Cover) != len(re.Cover) {
			t.Errorf("seed %d: cover sizes differ float=%d exact=%d", seed, len(rf.Cover), len(re.Cover))
			continue
		}
		for i := range rf.Cover {
			if rf.Cover[i] != re.Cover[i] {
				t.Errorf("seed %d: covers differ at %d", seed, i)
				break
			}
		}
	}
}

func TestFApproxRatioAgainstExactOPT(t *testing.T) {
	// Corollary 10: FApprox yields an f-approximation. Audit against the
	// exact optimum on small instances.
	for seed := int64(0); seed < 6; seed++ {
		g, err := hypergraph.UniformRandom(10, 14, 2,
			hypergraph.GenConfig{Seed: seed, Dist: hypergraph.WeightUniformRange, MaxWeight: 9})
		if err != nil {
			t.Fatal(err)
		}
		opts := DefaultOptions()
		opts.FApprox = true
		res, err := Run(g, opts, nil, 1)
		if err != nil {
			t.Fatal(err)
		}
		_, opt, err := lp.ExactCover(g, 0)
		if err != nil {
			t.Fatal(err)
		}
		f := float64(g.Rank())
		if float64(res.CoverWeight) > f*float64(opt)*(1+1e-6) {
			t.Errorf("seed %d: w(C)=%d > f·OPT = %f", seed, res.CoverWeight, f*float64(opt))
		}
	}
}

func TestOptionsValidation(t *testing.T) {
	g := hypergraph.MustNew([]int64{1, 1}, [][]hypergraph.VertexID{{0, 1}})
	tests := []struct {
		name string
		opts Options
	}{
		{"zero epsilon", Options{Variant: VariantDefault, Alpha: AlphaTheorem9}},
		{"epsilon too large", Options{Epsilon: 2, Variant: VariantDefault, Alpha: AlphaTheorem9}},
		{"bad variant", Options{Epsilon: 1, Variant: Variant(9), Alpha: AlphaTheorem9}},
		{"bad alpha policy", Options{Epsilon: 1, Variant: VariantDefault, Alpha: AlphaPolicy(9)}},
		{"fixed alpha below 2", Options{Epsilon: 1, Variant: VariantDefault, Alpha: AlphaFixed, FixedAlpha: 1.5}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Run(g, tt.opts, nil, 1); !errors.Is(err, ErrBadOptions) {
				t.Errorf("Run = %v, want ErrBadOptions", err)
			}
		})
	}
}

func TestIterationLimit(t *testing.T) {
	g, err := hypergraph.UniformRandom(40, 80, 2, hypergraph.GenConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.MaxIterations = 1
	if _, err := Run(g, opts, nil, 1); !errors.Is(err, ErrIterationLimit) {
		t.Errorf("Run = %v, want ErrIterationLimit", err)
	}
}

func TestHelpers(t *testing.T) {
	if b := Beta(2, 1); math.Abs(b-1.0/3) > 1e-12 {
		t.Errorf("Beta(2,1) = %f, want 1/3", b)
	}
	if z := ZLevels(2, 1); z != 2 {
		t.Errorf("ZLevels(2,1) = %d, want 2 (⌈log2 3⌉)", z)
	}
	if z := ZLevels(0, 1); z < 1 {
		t.Errorf("ZLevels clamp failed: %d", z)
	}
	if a := AlphaTheorem9Value(2, 1, 8, 0.001); a < 2 {
		t.Errorf("alpha = %f, want ≥ 2", a)
	}
	// Huge Δ with small f should produce α > 2.
	if a := AlphaTheorem9Value(2, 1, 1<<30, 0.001); a <= 2 {
		t.Errorf("alpha(Δ=2^30) = %f, want > 2", a)
	}
	if b := TheoreticalIterationBound(2, 1, 1024, 2); b <= 0 {
		t.Errorf("iteration bound = %f", b)
	}
	if VariantDefault.String() == "" || VariantSingleLevel.String() == "" ||
		Variant(42).String() == "" {
		t.Error("Variant.String broken")
	}
	if AlphaTheorem9.String() == "" || AlphaLocal.String() == "" ||
		AlphaFixed.String() == "" || AlphaPolicy(42).String() == "" {
		t.Error("AlphaPolicy.String broken")
	}
}

func TestDualValueLowerBoundsOPT(t *testing.T) {
	// Σδ ≤ OPT on instances small enough for the exact solver.
	for seed := int64(0); seed < 5; seed++ {
		g, err := hypergraph.UniformRandom(9, 12, 3,
			hypergraph.GenConfig{Seed: seed, Dist: hypergraph.WeightUniformRange, MaxWeight: 7})
		if err != nil {
			t.Fatal(err)
		}
		res := defaultRun(t, g)
		_, opt, err := lp.ExactCover(g, 0)
		if err != nil {
			t.Fatal(err)
		}
		if res.DualValue > float64(opt)*(1+1e-9) {
			t.Errorf("seed %d: dual %f exceeds OPT %d (weak duality violated)",
				seed, res.DualValue, opt)
		}
	}
}

func TestWeightIndependenceOfIterations(t *testing.T) {
	// The headline claim: rounds do not depend on W. Scaling all weights by
	// a large constant must not change the iteration count at all (the
	// algorithm is scale-invariant), and wildly heterogeneous weights must
	// stay within the Theorem 8 envelope.
	base, err := hypergraph.UniformRandom(100, 250, 3, hypergraph.GenConfig{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	scale := func(g *hypergraph.Hypergraph, c int64) *hypergraph.Hypergraph {
		scaled := make([]int64, g.NumVertices())
		for v := range scaled {
			scaled[v] = g.Weight(hypergraph.VertexID(v)) * c
		}
		edges := make([][]hypergraph.VertexID, g.NumEdges())
		for e := range edges {
			edges[e] = g.EdgeCopy(hypergraph.EdgeID(e))
		}
		return hypergraph.MustNew(scaled, edges)
	}

	// Float mode: scaling by a power of two is exact in float64, so the
	// trajectory must be bit-identical.
	res1 := defaultRun(t, base)
	res2 := defaultRun(t, scale(base, 1<<20))
	if res1.Iterations != res2.Iterations {
		t.Errorf("float mode: iterations changed under 2^20 weight scaling: %d vs %d",
			res1.Iterations, res2.Iterations)
	}

	// Exact mode: any scaling, including non-dyadic, preserves the
	// trajectory exactly.
	small, err := hypergraph.UniformRandom(40, 80, 3, hypergraph.GenConfig{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Exact = true
	re1, err := Run(small, opts, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	re2, err := Run(scale(small, 999_983), opts, nil, 1) // large prime scale
	if err != nil {
		t.Fatal(err)
	}
	if re1.Iterations != re2.Iterations {
		t.Errorf("exact mode: iterations changed under prime weight scaling: %d vs %d",
			re1.Iterations, re2.Iterations)
	}
}
