package bench

import (
	"fmt"
	"math"
	"math/rand"

	"distcover/internal/congest"
	"distcover/internal/core"
	"distcover/internal/hypergraph"
	"distcover/internal/lp"
	"distcover/internal/reduction"
)

// randomCoveringILP builds a feasible random covering ILP with small M so
// the Lemma 14 enumeration stays tractable.
func randomCoveringILP(seed int64, n, m, f int, maxCoef, maxB int64) *lp.CoveringILP {
	rng := rand.New(rand.NewSource(seed))
	p := &lp.CoveringILP{NumVars: n}
	for j := 0; j < n; j++ {
		p.Weights = append(p.Weights, 1+rng.Int63n(20))
	}
	for i := 0; i < m; i++ {
		k := 1 + rng.Intn(f)
		cols := rng.Perm(n)[:k]
		var terms []lp.Term
		for _, c := range cols {
			terms = append(terms, lp.Term{Col: c, Coef: 1 + rng.Int63n(maxCoef)})
		}
		p.Rows = append(p.Rows, lp.Row{Terms: terms, B: 1 + rng.Int63n(maxB)})
	}
	return p
}

// ILPPipeline (E5) exercises the Theorem 19 pipeline on random covering
// ILPs and reports the reduction blowup against the Claim 18 / Lemma 14
// bounds, plus solution quality against the LP dual bound and (tiny
// instances) the exact optimum.
func ILPPipeline(cfg Config) ([]Table, error) {
	t := Table{
		ID:    "E5",
		Title: "covering ILPs through ILP→0/1→MWHVC→cover→x (Theorem 19)",
		Header: []string{"f", "M", "n", "rows", "f'", "Δ'", "hg edges", "iterations",
			"value", "LP bound", "ratio", "f'·B bound"},
	}
	n := pick(cfg, 60, 20)
	m := pick(cfg, 40, 12)
	for _, f := range []int{2, 3} {
		for _, maxB := range []int64{3, 6} {
			p := randomCoveringILP(cfg.Seed+int64(f)*10+maxB, n, m, f, 3, maxB)
			res, err := reduction.SolveILP(p, core.DefaultOptions(), reduction.Options{PruneDominated: true})
			if err != nil {
				return nil, fmt.Errorf("E5 f=%d maxB=%d: %w", f, maxB, err)
			}
			lb := lp.GreedyDualBoundILP(p)
			if res.Core.DualValue > lb {
				lb = res.Core.DualValue
			}
			ratio := 1.0
			if lb > 0 {
				ratio = float64(res.Value) / lb
			}
			bBits := 1
			for v := res.Stats.M; v > 1; v >>= 1 {
				bBits++
			}
			t.AddRow(fmtI(res.Stats.F), fmtI64(res.Stats.M), fmtI(n), fmtI(m),
				fmtI(res.Stats.HgRank), fmtI(res.Stats.HgDelta), fmtI(res.Stats.HgEdges),
				fmtI(res.Core.Iterations), fmtI64(res.Value), fmtF(lb), fmtF(ratio),
				fmtI(res.Stats.F*bBits))
		}
	}
	t.Notes = append(t.Notes,
		"f' never exceeds the Claim 18 bound f·(⌊log M⌋+1) (last column)",
		"every returned x is verified feasible inside the pipeline",
	)

	// Tiny instances vs exact optimum.
	t2 := Table{
		ID:     "E5",
		Title:  "pipeline vs exact ILP optimum (tiny instances)",
		Header: []string{"instance", "OPT", "pipeline value", "value/OPT"},
	}
	for seed := int64(0); seed < 4; seed++ {
		p := randomCoveringILP(cfg.Seed+seed, 6, 5, 2, 3, 4)
		res, err := reduction.SolveILP(p, core.DefaultOptions(), reduction.Options{PruneDominated: true})
		if err != nil {
			return nil, err
		}
		_, opt, err := lp.ExactILP(p, 0)
		if err != nil {
			return nil, err
		}
		ratio := 1.0
		if opt > 0 {
			ratio = float64(res.Value) / float64(opt)
		}
		t2.AddRow(fmt.Sprintf("seed %d", seed), fmtI64(opt), fmtI64(res.Value), fmtF(ratio))
	}
	return []Table{t, t2}, nil
}

// VariantComparison (E6) compares the default algorithm with the
// Appendix C single-level variant: Lemma 22 predicts at most twice the
// stuck iterations, and Corollary 21 at most one level gain per iteration.
func VariantComparison(cfg Config) ([]Table, error) {
	t := Table{
		ID:    "E6",
		Title: "default vs Appendix C single-level variant",
		Header: []string{"f", "n", "iters default", "iters single-level", "ratio",
			"max inc default", "max inc single-level"},
	}
	n := pick(cfg, 4_000, 500)
	for _, f := range []int{2, 3, 5} {
		g, err := hypergraph.RegularLike(n, 4*f, f, hypergraph.GenConfig{
			Seed: cfg.Seed + int64(f), Dist: hypergraph.WeightExponential, MaxWeight: 1 << 16,
		})
		if err != nil {
			return nil, err
		}
		optsD := core.DefaultOptions()
		optsD.CollectTrace = true
		resD, err := core.Run(g, optsD, nil)
		if err != nil {
			return nil, err
		}
		optsS := optsD
		optsS.Variant = core.VariantSingleLevel
		resS, err := core.Run(g, optsS, nil)
		if err != nil {
			return nil, err
		}
		maxInc := func(tr []core.IterationStats) int {
			m := 0
			for _, it := range tr {
				if it.MaxLevelIncrement > m {
					m = it.MaxLevelIncrement
				}
			}
			return m
		}
		ratio := float64(resS.Iterations) / math.Max(float64(resD.Iterations), 1)
		t.AddRow(fmtI(f), fmtI(n), fmtI(resD.Iterations), fmtI(resS.Iterations),
			fmtF(ratio), fmtI(maxInc(resD.Trace)), fmtI(maxInc(resS.Trace)))
	}
	t.Notes = append(t.Notes,
		"Corollary 21: single-level column of max increments is always ≤ 1",
		"Lemma 22: iteration ratio stays small (stuck iterations at most double)",
	)
	return []Table{t}, nil
}

// AlphaAblation (E7) sweeps fixed α on one instance, exhibiting the
// Theorem 8 trade-off log_α Δ (raise iterations) vs f·z·α (stuck
// iterations) and comparing with the α Theorem 9 picks.
func AlphaAblation(cfg Config) ([]Table, error) {
	n := pick(cfg, 8_000, 800)
	g, err := hypergraph.RegularLike(n, 64, 3, hypergraph.GenConfig{
		Seed: cfg.Seed, Dist: hypergraph.WeightExponential, MaxWeight: 1 << 12,
	})
	if err != nil {
		return nil, err
	}
	t := Table{
		ID:     "E7",
		Title:  fmt.Sprintf("iterations vs fixed α (n=%d, d=64, f=3, ε=1)", n),
		Header: []string{"α", "iterations", "rounds", "Theorem 8 bound (no constants)"},
	}
	for _, alpha := range []float64{2, 3, 4, 6, 8, 12, 16, 24, 32} {
		opts := core.DefaultOptions()
		opts.Alpha = core.AlphaFixed
		opts.FixedAlpha = alpha
		res, err := core.Run(g, opts, nil)
		if err != nil {
			return nil, err
		}
		bound := core.TheoreticalIterationBound(3, 1, g.MaxDegree(), alpha)
		t.AddRow(fmtF(alpha), fmtI(res.Iterations), fmtI(res.Rounds), fmtF(bound))
	}
	theo := core.AlphaTheorem9Value(3, 1, g.MaxDegree(), 0.001)
	t.Notes = append(t.Notes,
		fmt.Sprintf("Theorem 9 picks α = %.3f for this instance", theo),
		"shape: iterations rise once α outgrows the raise/stuck balance (f·z·α term)",
	)
	return []Table{t}, nil
}

// MessageSize (E8) runs the real CONGEST protocol and verifies the
// Appendix B accounting: O(log n)-bit messages and 2+2·iterations rounds.
func MessageSize(cfg Config) ([]Table, error) {
	n := pick(cfg, 2_000, 300)
	g, err := hypergraph.RegularLike(n, 8, 3, hypergraph.GenConfig{
		Seed: cfg.Seed, Dist: hypergraph.WeightExponential, MaxWeight: 1 << 20,
	})
	if err != nil {
		return nil, err
	}
	budget := congest.LogBudget(g.NumVertices() + g.NumEdges())
	res, metrics, err := core.RunCongest(g, core.DefaultOptions(), nil, congest.SequentialEngine{},
		congest.Options{Validate: true, BitBudget: budget})
	if err != nil {
		return nil, err
	}
	t := Table{
		ID:     "E8",
		Title:  fmt.Sprintf("CONGEST conformance (n=%d, m=%d, W=2^20)", g.NumVertices(), g.NumEdges()),
		Header: []string{"metric", "value", "bound"},
	}
	t.AddRow("max message bits", fmtI(metrics.MaxMessageBits), fmt.Sprintf("budget %d (enforced)", budget))
	t.AddRow("rounds", fmtI(metrics.Rounds), fmt.Sprintf("2+2·iterations = %d (+1 term.)", 2+2*res.Iterations))
	t.AddRow("messages", fmtI64(metrics.Messages), "-")
	t.AddRow("total bits", fmtI64(metrics.TotalBits), "-")
	t.AddRow("iterations", fmtI(res.Iterations), "-")
	t.Notes = append(t.Notes,
		"the engine rejects any message above the budget; this run passed enforcement")
	return []Table{t}, nil
}

// EpsilonRange (E9) shrinks ε through the regimes of Corollaries 11 and 12
// and reports how rounds respond: ε enters only through the additive
// f·log(f/ε) term, so even ε = 2^-(logΔ)^0.99 stays cheap.
func EpsilonRange(cfg Config) ([]Table, error) {
	n := pick(cfg, 20_000, 1_000)
	g, err := hypergraph.RegularLike(n, 32, 2, hypergraph.GenConfig{
		Seed: cfg.Seed, Dist: hypergraph.WeightUniformRange, MaxWeight: 1000,
	})
	if err != nil {
		return nil, err
	}
	logD := math.Log2(float64(g.MaxDegree()))
	epsilons := []struct {
		name string
		eps  float64
	}{
		{"1", 1},
		{"0.1", 0.1},
		{"1/logΔ", 1 / logD},
		{"1/logΔ^2", 1 / (logD * logD)},
		{"2^-(logΔ)^0.99", math.Pow(2, -math.Pow(logD, 0.99))},
	}
	t := Table{
		ID:     "E9",
		Title:  fmt.Sprintf("rounds as ε shrinks (n=%d, d=32, f=2)", n),
		Header: []string{"ε regime", "ε", "z levels", "α", "iterations", "rounds"},
	}
	for _, e := range epsilons {
		opts := core.DefaultOptions()
		opts.Epsilon = e.eps
		res, err := core.Run(g, opts, nil)
		if err != nil {
			return nil, err
		}
		t.AddRow(e.name, fmt.Sprintf("%.3e", e.eps), fmtI(res.Z), fmtF(res.Alpha),
			fmtI(res.Iterations), fmtI(res.Rounds))
	}
	t.Notes = append(t.Notes,
		"Corollary 12 regime (last row): rounds grow only through z = O(log(f/ε))",
	)
	return []Table{t}, nil
}
