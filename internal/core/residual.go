package core

import (
	"errors"
	"fmt"

	"distcover/internal/hypergraph"
)

// This file implements the warm-started residual solves behind incremental
// cover sessions (distcover.Session). The observation is that Algorithm
// MWHVC is monotone in the duals: a vertex that carries load Σδ = carry[v]
// from earlier solves behaves exactly like a mid-run vertex of a single
// larger execution. Re-running the level algorithm on just the residual
// instance — the uncovered new edges and their incident vertices — with the
// carried loads seeded therefore extends the existing primal/dual state
// instead of recomputing it:
//
//   - Dual feasibility (Claim 1) is preserved: the vertex level is derived
//     from the carried load with the step-3d formula, which guarantees
//     slack(v) ≥ w(v)·2^{-(ℓ(v)+1)}, and the warm iteration-0 bid
//     ½·(w·2^{-ℓ})/deg fits inside it. Every later addition is governed by
//     the unmodified level/halving mechanism.
//   - Every vertex still joins the cover only when Σδ ≥ (1-β)·w(v) with
//     β = ε/(f+ε) of the solve it joined under. Since (1-β) ≥ 1/(1+ε) for
//     every f ≥ 1, the union cover after any number of delta batches obeys
//     w(C) ≤ (1+ε)·Σ_{v∈C} Σ_{e∋v} δ(e) ≤ f·(1+ε)·Σ_e δ(e),
//     the f(1+ε) certificate the session reports (the rank f may grow as
//     edges arrive, which is why the clean per-solve (f+ε) bound relaxes).
//
// ErrBadCarry is returned when the carried loads are out of range.
var ErrBadCarry = errors.New("core: invalid carry load")

// validateCarry checks the warm-start loads against the residual instance;
// a nil carry is a cold start and always valid.
func validateCarry(g *hypergraph.Hypergraph, carry []float64) error {
	if carry == nil {
		return nil
	}
	if len(carry) != g.NumVertices() {
		return fmt.Errorf("%w: %d loads for %d vertices", ErrBadCarry, len(carry), g.NumVertices())
	}
	for v, c := range carry {
		w := float64(g.Weight(hypergraph.VertexID(v)))
		if c < 0 || c >= w || c != c {
			return fmt.Errorf("%w: vertex %d load %g outside [0, w=%g)", ErrBadCarry, v, c, w)
		}
	}
	return nil
}
