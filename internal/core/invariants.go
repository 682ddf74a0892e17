package core

import (
	"errors"
	"fmt"
	"math"

	"distcover/internal/hypergraph"
)

// ErrInvariantViolated is returned when Options.CheckInvariants detects a
// violation of the paper's invariants during a run. It indicates a bug (or,
// in float64 mode, numerical drift beyond tolerance).
var ErrInvariantViolated = errors.New("core: invariant violated")

// invariantTolerance is the relative slack allowed in float64 mode; exact
// mode checks with zero tolerance.
const invariantTolerance = 1e-9

// checkInvariants verifies, at the end of an iteration, for the vertices
// of [lo, hi) and the edges they own (minimum vertex in the range):
//
//	Claim 1: for every active vertex, Σ_{e∈E'(v)} bid(e) ≤ 2^{-(ℓ(v)+1)}·w(v)
//	Claim 2: the duals are a feasible edge packing: Σ_{e∈E(v)} δ(e) ≤ w(v)
//	         and, for active vertices at level ℓ > 0, the lower half of
//	         Eq. (1): w(v)·(1 - 2^{-ℓ(v)}) ≤ Σ δ(e)
//	Claim 4: ℓ(v) < z (exact mode; float mode allows ℓ(v) ≤ z for boundary
//	         rounding)
//
// Whole-instance runs pass [0, n); a partition passes its own range, where
// its aggregates are authoritative, so the partitions of a plan together
// check every vertex and every edge exactly once. The checks run in the
// same arithmetic as the algorithm; float64 mode allows a relative
// tolerance.
func (st *state[T]) checkInvariants(iteration, z, lo, hi int) error {
	num := st.num
	exact := num.IntegerAlpha()
	leq := func(a, b T) bool {
		if num.Cmp(a, b) <= 0 {
			return true
		}
		if exact {
			return false
		}
		fa, fb := num.Float(a), num.Float(b)
		return fa <= fb*(1+invariantTolerance)+invariantTolerance
	}
	for v := lo; v < hi; v++ {
		// Claim 2, packing side: holds for every vertex, terminated or not.
		if !leq(st.sumDelta[v], st.wT[v]) {
			return fmt.Errorf("%w: iteration %d vertex %d: Σδ = %g > w = %g (Claim 2)",
				ErrInvariantViolated, iteration, v,
				num.Float(st.sumDelta[v]), num.Float(st.wT[v]))
		}
		if st.doneV[v] {
			continue
		}
		// Claim 4.
		levelCap := z
		if !exact {
			levelCap = z + 1
		}
		if st.level[v] >= levelCap {
			return fmt.Errorf("%w: iteration %d vertex %d: level %d reached cap %d (Claim 4)",
				ErrInvariantViolated, iteration, v, st.level[v], levelCap)
		}
		// Claim 1 on the refreshed aggregate.
		if !leq(st.sumBid[v], num.HalfPow(st.wT[v], st.level[v]+1)) {
			return fmt.Errorf("%w: iteration %d vertex %d: Σbid = %g > 2^-(ℓ+1)·w = %g (Claim 1)",
				ErrInvariantViolated, iteration, v,
				num.Float(st.sumBid[v]), num.Float(num.HalfPow(st.wT[v], st.level[v]+1)))
		}
		// Eq. (1) lower half, float-checked (it is a derived property used
		// by Lemma 7's accounting, not a safety condition).
		if st.level[v] > 0 {
			lower := num.Float(st.wT[v]) * (1 - math.Pow(0.5, float64(st.level[v])))
			if num.Float(st.sumDelta[v]) < lower*(1-invariantTolerance)-invariantTolerance {
				return fmt.Errorf("%w: iteration %d vertex %d: Σδ = %g below level-%d floor %g (Eq. 1)",
					ErrInvariantViolated, iteration, v,
					num.Float(st.sumDelta[v]), st.level[v], lower)
			}
		}
	}
	// Dual non-negativity (Claim 2) of the owned edges.
	zero := num.Zero()
	for v := lo; v < hi; v++ {
		for _, e := range st.g.Incident(hypergraph.VertexID(v)) {
			if int(st.g.Edge(e)[0]) == v && num.Cmp(st.delta[e], zero) < 0 {
				return fmt.Errorf("%w: iteration %d edge %d: δ = %g < 0",
					ErrInvariantViolated, iteration, e, num.Float(st.delta[e]))
			}
		}
	}
	return nil
}
