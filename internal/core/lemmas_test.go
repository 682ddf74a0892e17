package core

import (
	"math"
	"testing"

	"distcover/internal/hypergraph"
)

// TestLemma6RaiseBound verifies, per edge, that the number of α-raises
// never exceeds the Lemma 6 bound log_α(Δ·2^{f·z}): the initial bid is at
// least 0.5·w(v*)/Δ, it never exceeds 0.5·w(v*) (Claim 1), it multiplies by
// α on every raise and halves at most f·z times.
func TestLemma6RaiseBound(t *testing.T) {
	workloads := []struct {
		name  string
		build func() (*hypergraph.Hypergraph, error)
	}{
		{"lollipop", func() (*hypergraph.Hypergraph, error) { return hypergraph.Lollipop(512, 512*1024) }},
		{"random", func() (*hypergraph.Hypergraph, error) {
			return hypergraph.UniformRandom(200, 500, 3, hypergraph.GenConfig{
				Seed: 1, Dist: hypergraph.WeightExponential, MaxWeight: 1 << 16,
			})
		}},
		{"power-law", func() (*hypergraph.Hypergraph, error) {
			return hypergraph.PowerLaw(150, 400, 3, hypergraph.GenConfig{
				Seed: 2, Dist: hypergraph.WeightUniformRange, MaxWeight: 100,
			})
		}},
	}
	alphas := []float64{2, 4, 8}
	for _, wl := range workloads {
		for _, alpha := range alphas {
			g, err := wl.build()
			if err != nil {
				t.Fatal(err)
			}
			opts := DefaultOptions()
			opts.Alpha = AlphaFixed
			opts.FixedAlpha = alpha
			opts.CollectTrace = true
			res, err := Run(g, opts, nil)
			if err != nil {
				t.Fatal(err)
			}
			f := float64(g.Rank())
			z := float64(res.Z)
			delta := float64(g.MaxDegree())
			// Lemma 6: raises(e) ≤ log_α(Δ·2^{f·z}); +1 absorbs the
			// iteration-0 rounding of the bound's derivation.
			bound := math.Log(delta*math.Pow(2, f*z))/math.Log(alpha) + 1
			for e, raises := range res.EdgeRaises {
				if float64(raises) > bound {
					t.Errorf("%s α=%g: edge %d raised %d times > Lemma 6 bound %.1f",
						wl.name, alpha, e, raises, bound)
				}
			}
		}
	}
}

// TestLemma7StuckBound verifies, per vertex, that the number of stuck
// iterations spent at any single level never exceeds α (Lemma 7), or 2α
// for the Appendix C variant (Lemma 22).
func TestLemma7StuckBound(t *testing.T) {
	for _, variant := range []Variant{VariantDefault, VariantSingleLevel} {
		for _, alpha := range []float64{2, 4, 8} {
			g, err := hypergraph.UniformRandom(200, 500, 3, hypergraph.GenConfig{
				Seed: 3, Dist: hypergraph.WeightExponential, MaxWeight: 1 << 12,
			})
			if err != nil {
				t.Fatal(err)
			}
			opts := DefaultOptions()
			opts.Variant = variant
			opts.Alpha = AlphaFixed
			opts.FixedAlpha = alpha
			opts.CollectTrace = true
			res, err := Run(g, opts, nil)
			if err != nil {
				t.Fatal(err)
			}
			bound := alpha
			if variant == VariantSingleLevel {
				bound = 2 * alpha // Lemma 22
			}
			// +1 absorbs the final stuck iteration in which the vertex
			// becomes β-tight instead of levelling up.
			for v, stuck := range res.MaxStuckPerLevel {
				if float64(stuck) > bound+1 {
					t.Errorf("variant=%s α=%g: vertex %d stuck %d times at one level > bound %g",
						variant, alpha, v, stuck, bound)
				}
			}
		}
	}
}

// TestTheorem8TotalIterations checks the end-to-end iteration count
// against the Theorem 8 bound with explicit constants: iterations ≤
// raise bound + Σ_{v∈e} stuck bound for the worst edge, i.e.
// log_α(Δ·2^{f·z}) + f·z·α up to the small additive slack of the two
// per-component checks above.
func TestTheorem8TotalIterations(t *testing.T) {
	for _, alpha := range []float64{2, 4, 8, 16} {
		g, err := hypergraph.RegularLike(1000, 16, 3, hypergraph.GenConfig{
			Seed: 4, Dist: hypergraph.WeightExponential, MaxWeight: 1 << 16,
		})
		if err != nil {
			t.Fatal(err)
		}
		opts := DefaultOptions()
		opts.Alpha = AlphaFixed
		opts.FixedAlpha = alpha
		res, err := Run(g, opts, nil)
		if err != nil {
			t.Fatal(err)
		}
		f := float64(g.Rank())
		z := float64(res.Z)
		delta := float64(g.MaxDegree())
		bound := math.Log(delta*math.Pow(2, f*z))/math.Log(alpha) + f*z*alpha + f + 2
		if float64(res.Iterations) > bound {
			t.Errorf("α=%g: %d iterations exceed Theorem 8 bound %.1f",
				alpha, res.Iterations, bound)
		}
	}
}
