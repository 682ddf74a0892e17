package distcover

import (
	"fmt"

	"distcover/internal/lp"
	"distcover/internal/reduction"
)

// ILP is a covering integer program: minimize wᵀx subject to Ax ≥ b with
// x ∈ ℕⁿ and non-negative integer data. Build one with NewILP and
// AddConstraint.
type ILP struct {
	inner lp.CoveringILP
}

// NewILP creates a covering ILP over len(weights) variables with the given
// strictly positive objective weights.
func NewILP(weights []int64) *ILP {
	p := &ILP{}
	p.inner.NumVars = len(weights)
	p.inner.Weights = append(p.inner.Weights, weights...)
	return p
}

// AddConstraint appends the covering constraint Σ coefs[i]·x[vars[i]] ≥ b.
func (p *ILP) AddConstraint(vars []int, coefs []int64, b int64) error {
	if len(vars) != len(coefs) {
		return fmt.Errorf("distcover: %d vars but %d coefficients", len(vars), len(coefs))
	}
	row := lp.Row{B: b}
	for i, v := range vars {
		row.Terms = append(row.Terms, lp.Term{Col: v, Coef: coefs[i]})
	}
	p.inner.Rows = append(p.inner.Rows, row)
	return nil
}

// Validate checks the program is a well-formed feasible covering ILP.
func (p *ILP) Validate() error { return p.inner.Validate() }

// IsFeasible reports whether x satisfies all constraints.
func (p *ILP) IsFeasible(x []int64) bool { return p.inner.IsFeasible(x) }

// Value returns wᵀx.
func (p *ILP) Value(x []int64) int64 { return p.inner.Value(x) }

// ILPStats reports the program parameters and the reduction blowup.
type ILPStats struct {
	// F is f(A): the maximum number of variables per constraint.
	F int
	// Delta is Δ(A): the maximum number of constraints per variable.
	Delta int
	// M is the box bound M(A,b) (Definition 16).
	M int64
	// HypergraphRank and HypergraphDegree are the reduced instance's f′
	// and Δ′ (Claim 18 + Lemma 14 bound f′ ≤ f·(⌊log M⌋+1) and
	// Δ′ ≤ 2^f′·Δ).
	HypergraphRank   int
	HypergraphDegree int
	HypergraphEdges  int
}

// ILPSolution is the output of SolveILP.
type ILPSolution struct {
	// X is the integral solution; always feasible.
	X []int64
	// Value is wᵀX.
	Value int64
	// DualLowerBound lower-bounds the optimum via the reduced instance's
	// dual packing.
	DualLowerBound float64
	// Iterations / Rounds measure the core algorithm on the reduced
	// hypergraph; the paper's (1 + f/log n) simulation overhead is in
	// SimulationFactor.
	Iterations       int
	Rounds           int
	SimulationFactor float64
	// Stats reports the reduction blowup.
	Stats ILPStats
}

// SolveILP computes an approximate integral solution of a covering ILP via
// the Theorem 19 pipeline: binary expansion to a zero-one program
// (Claim 18), monotone-CNF reduction to hypergraph vertex cover
// (Lemma 14), Algorithm MWHVC, and mapping the cover back to x. The paper
// proves an (f+ε) guarantee; each run additionally certifies
// Value ≤ (f′+ε)·DualLowerBound with f′ the reduced rank.
//
// The Lemma 14 reduction enumerates 2^|row| subsets; constraints must stay
// within about 20 nonzeros after bit expansion (f·⌈log M⌉ ≲ 20).
func SolveILP(p *ILP, opts ...Option) (*ILPSolution, error) {
	if p == nil {
		return nil, ErrNilInstance
	}
	cfg := optConfig(opts)
	// The reduced instance solves on the frontier runner at one worker,
	// which run labels "sim"; the span wires WithTelemetry and WithTracer
	// into its options, as run does for Solve.
	stop := cfg.startSpan("sim")
	res, err := reduction.SolveILP(&p.inner, cfg.core, reduction.Options{PruneDominated: true})
	stop()
	if err != nil {
		return nil, fmt.Errorf("distcover: %w", err)
	}
	return &ILPSolution{
		X:                res.X,
		Value:            res.Value,
		DualLowerBound:   res.Core.DualValue,
		Iterations:       res.Core.Iterations,
		Rounds:           res.Core.Rounds,
		SimulationFactor: res.Stats.SimulationFactor,
		Stats: ILPStats{
			F:                res.Stats.F,
			Delta:            res.Stats.Delta,
			M:                res.Stats.M,
			HypergraphRank:   res.Stats.HgRank,
			HypergraphDegree: res.Stats.HgDelta,
			HypergraphEdges:  res.Stats.HgEdges,
		},
	}, nil
}
