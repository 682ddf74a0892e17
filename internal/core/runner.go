package core

import (
	"fmt"
	"math"
	"time"

	"distcover/internal/hypergraph"
	"distcover/internal/telemetry"
)

// runLockstep executes Algorithm MWHVC directly over the hypergraph in
// lockstep iterations, with the exact phase alignment of the Appendix B
// CONGEST protocol (tests verify bit-for-bit agreement with RunCongest):
//
//	vertex phase i: process previous edge outputs; β-tight check (3a);
//	               level increments (3d); raise/stuck decision (3e)
//	edge phase i:  covered propagation (3b/3c); apply halvings; raise (3f);
//	               dual update δ += bid (or bid/2 in the Appendix C variant)
//
// A vertex's raise/stuck test sees bids after its own halvings only — other
// vertices' same-iteration halvings arrive with the edge's next report —
// matching the distributed reading of steps 3d/3e (footnote 4, Appendix B).
//
// carry, when non-nil, warm-starts the run for incremental sessions: vertex
// v begins with Σδ = carry[v] already committed by earlier solves (its level
// is derived from that load before iteration 0) and the iteration-0 bids
// shrink to fit the remaining slack; see initIterationZero. carry == nil is
// the ordinary cold start.
func runLockstep[T any](num numeric[T], g *hypergraph.Hypergraph, opts Options, carry []float64) (*Result, error) {
	return runLockstepOn(newState(num, g, opts), carry)
}

// runLockstepOn is runLockstep over a caller-provided state, so the float64
// production path can hand in pooled, arena-backed state (arena.go) while
// the exact path keeps plain allocation. The state must be freshly
// initialized for its graph; it is fully consumed by the run.
func runLockstepOn[T any](st *state[T], carry []float64) (*Result, error) {
	g, opts := st.g, st.opts
	n := g.NumVertices()
	f := g.Rank()
	eps := opts.Epsilon

	globalAlpha := st.resolveAlphas(f, eps)
	maxIter := opts.MaxIterations
	if maxIter <= 0 {
		maxIter = defaultIterationCap(f, eps, g.MaxDegree(), globalAlpha)
	}

	// Telemetry hooks: tr is nil on the default path, where the only cost
	// is the nil tests — no timestamps, no allocations.
	tr := opts.Tracer
	var t0 time.Time
	if tr != nil {
		t0 = time.Now()
	}
	st.initIterationZero(carry)
	if tr != nil {
		tr.Phase(0, telemetry.PhaseInit, time.Since(t0), 0)
	}

	res := &Result{
		Z:       ZLevels(f, eps),
		Alpha:   globalAlpha,
		Epsilon: eps,
	}
	for st.uncovered > 0 {
		if res.Iterations >= maxIter {
			return nil, fmt.Errorf("%w: %d iterations, %d edges uncovered",
				ErrIterationLimit, res.Iterations, st.uncovered)
		}
		res.Iterations++
		var its IterationStats
		its.Iteration = res.Iterations
		if tr != nil {
			t0 = time.Now()
		}
		st.vertexPhase(&its)
		if tr != nil {
			tr.Phase(res.Iterations, telemetry.PhaseVertex, time.Since(t0), 0)
			t0 = time.Now()
		}
		st.edgePhase(&its)
		if tr != nil {
			tr.Phase(res.Iterations, telemetry.PhaseEdge, time.Since(t0), 0)
			t0 = time.Now()
		}
		st.refreshVertexAggregates()
		if tr != nil {
			tr.Phase(res.Iterations, telemetry.PhaseGather, time.Since(t0), 0)
		}
		if opts.CheckInvariants {
			if err := st.checkInvariants(res.Iterations, res.Z, 0, n); err != nil {
				return nil, err
			}
		}
		if opts.CollectTrace {
			its.ActiveEdges = st.uncovered
			for v := 0; v < n; v++ {
				if !st.doneV[v] {
					its.ActiveVertices++
				}
			}
			res.Trace = append(res.Trace, its)
		}
	}
	st.fill(res)
	return res, nil
}

// state is the lockstep runner's working memory.
type state[T any] struct {
	num  numeric[T]
	g    *hypergraph.Hypergraph
	opts Options

	// Per edge.
	bid     []T
	delta   []T
	covered []bool
	alphaE  []T

	// Per vertex.
	level    []int
	sumDelta []T // Σ_{e ∈ E(v)} δ(e), including frozen covered edges
	sumBid   []T // Σ_{e ∈ E'(v)} bid(e), refreshed after each edge phase
	alphaV   []T // max α(e) over E'(v); constant unless AlphaLocal
	inCover  []bool
	doneV    []bool
	uncovDeg []int
	inc      []int  // level increments this iteration
	raise    []bool // raise/stuck decision this iteration
	joined   []bool // joined the cover this iteration
	raises   []int  // per edge: α-multiplications (Lemma 6 accounting)
	stuckCur []int  // per vertex: stuck iterations at the current level
	stuckMax []int  // per vertex: max stuck iterations at any level
	wT       []T    // w(v)
	fWT      []T    // f·w(v) (for the cross-multiplied tightness test)
	fPlusEps T      // f+ε

	uncovered  int
	localAlpha bool
}

// newState allocates the runner's working memory for g. Shared by the
// sequential lockstep runner and the chunk-parallel flat runner (flat.go).
func newState[T any](num numeric[T], g *hypergraph.Hypergraph, opts Options) *state[T] {
	n, m := g.NumVertices(), g.NumEdges()
	f := g.Rank()
	return &state[T]{
		num:  num,
		g:    g,
		opts: opts,

		bid:     make([]T, m),
		delta:   make([]T, m),
		covered: make([]bool, m),
		alphaE:  make([]T, m),

		level:     make([]int, n),
		sumDelta:  make([]T, n),
		sumBid:    make([]T, n),
		alphaV:    make([]T, n),
		inCover:   make([]bool, n),
		doneV:     make([]bool, n),
		uncovDeg:  make([]int, n),
		inc:       make([]int, n),
		raise:     make([]bool, n),
		joined:    make([]bool, n),
		raises:    make([]int, m),
		stuckCur:  make([]int, n),
		stuckMax:  make([]int, n),
		wT:        make([]T, n),
		fWT:       make([]T, n),
		fPlusEps:  num.Add(num.FromRatio(int64(maxInt(f, 1)), 1), num.FromFloat(opts.Epsilon)),
		uncovered: m,
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// resolveAlphas fills alphaE / alphaV per the policy and returns the global
// α (0 when per-edge local values are in use).
func (st *state[T]) resolveAlphas(f int, eps float64) float64 {
	g, num, opts := st.g, st.num, st.opts
	round := func(a float64) float64 {
		if num.IntegerAlpha() {
			return math.Ceil(a)
		}
		return a
	}
	switch opts.Alpha {
	case AlphaLocal:
		st.localAlpha = true
		for e := 0; e < g.NumEdges(); e++ {
			a := round(AlphaTheorem9Value(f, eps, g.LocalMaxDegree(hypergraph.EdgeID(e)), opts.Gamma))
			st.alphaE[e] = num.FromFloat(a)
		}
		// alphaV = max over incident (refreshed as edges get covered).
		for v := range st.alphaV {
			st.alphaV[v] = num.FromFloat(2)
		}
		for v := 0; v < g.NumVertices(); v++ {
			for _, e := range g.Incident(hypergraph.VertexID(v)) {
				if num.Cmp(st.alphaE[e], st.alphaV[v]) > 0 {
					st.alphaV[v] = st.alphaE[e]
				}
			}
		}
		return 0
	case AlphaFixed:
		a := round(opts.FixedAlpha)
		aT := num.FromFloat(a)
		for e := range st.alphaE {
			st.alphaE[e] = aT
		}
		for v := range st.alphaV {
			st.alphaV[v] = aT
		}
		return a
	default: // AlphaTheorem9
		a := round(AlphaTheorem9Value(f, eps, g.MaxDegree(), opts.Gamma))
		aT := num.FromFloat(a)
		for e := range st.alphaE {
			st.alphaE[e] = aT
		}
		for v := range st.alphaV {
			st.alphaV[v] = aT
		}
		return a
	}
}

// initIterationZero performs iteration 0: bid(e) = ½·min_{v∈e} w(v)/|E(v)|,
// δ(e) = bid(e), and seeds the vertex aggregates. Isolated vertices
// terminate immediately.
//
// With a non-nil carry (warm start), Σδ starts at the carried load, the
// vertex level ℓ(v) is pre-derived from it with the step-3d formula, and
// the bid rule becomes bid(e) = ½·min_{v∈e} (w(v)·2^{-ℓ(v)})/|E(v)|: since
// the 3d formula guarantees slack(v) = w(v) - Σδ ≥ w(v)·2^{-(ℓ(v)+1)},
// every vertex's incident iteration-0 bids sum to at most half its true
// slack, so dual feasibility (Claim 1) survives the warm start. With all
// levels 0 — a cold start — the rule reduces to the paper's exactly.
func (st *state[T]) initIterationZero(carry []float64) {
	g, num := st.g, st.num
	f := maxInt(g.Rank(), 1)
	for v := 0; v < g.NumVertices(); v++ {
		w := g.Weight(hypergraph.VertexID(v))
		st.wT[v] = num.FromRatio(w, 1)
		st.fWT[v] = num.FromRatio(w*int64(f), 1)
		st.sumDelta[v] = num.Zero()
		if carry != nil {
			st.sumDelta[v] = num.FromFloat(carry[v])
			for num.Cmp(num.Add(st.sumDelta[v], num.HalfPow(st.wT[v], st.level[v]+1)), st.wT[v]) > 0 {
				st.level[v]++
			}
		}
		st.sumBid[v] = num.Zero()
		st.uncovDeg[v] = g.Degree(hypergraph.VertexID(v))
		if st.uncovDeg[v] == 0 {
			st.doneV[v] = true
		}
	}
	for e := 0; e < g.NumEdges(); e++ {
		vs := g.Edge(hypergraph.EdgeID(e))
		ve := vs[0]
		var b T
		if carry == nil {
			for _, v := range vs[1:] {
				// argmin w(v)/|E(v)| with deterministic tie-break on lower id:
				// compare w(v)·deg(ve) < w(ve)·deg(v) in exact integers.
				if g.Weight(v)*int64(g.Degree(ve)) < g.Weight(ve)*int64(g.Degree(v)) {
					ve = v
				}
			}
			b = num.FromRatio(g.Weight(ve), 2*int64(g.Degree(ve)))
		} else {
			// argmin of the level-discounted slack bound; ties keep the
			// lower id. The congest residual protocol computes the same
			// quantities with the same float operations (nodes.go).
			best := num.HalfPow(num.FromRatio(g.Weight(ve), int64(g.Degree(ve))), st.level[ve])
			for _, v := range vs[1:] {
				c := num.HalfPow(num.FromRatio(g.Weight(v), int64(g.Degree(v))), st.level[v])
				if num.Cmp(c, best) < 0 {
					ve, best = v, c
				}
			}
			b = num.HalfPow(num.FromRatio(g.Weight(ve), 2*int64(g.Degree(ve))), st.level[ve])
		}
		st.bid[e] = b
		st.delta[e] = b
		for _, v := range vs {
			st.sumDelta[v] = num.Add(st.sumDelta[v], b)
			st.sumBid[v] = num.Add(st.sumBid[v], b)
		}
	}
}

// vertexPhase runs steps 3a (β-tightness), 3d (level increments) and 3e
// (raise/stuck) for every active vertex.
func (st *state[T]) vertexPhase(its *IterationStats) {
	num, g := st.num, st.g
	for v := 0; v < g.NumVertices(); v++ {
		st.inc[v] = 0
		st.joined[v] = false
		if st.doneV[v] {
			continue
		}
		// 3a: β-tight ⇔ Σδ ≥ (1-β)w ⇔ (f+ε)·Σδ ≥ f·w (cross-multiplied so
		// exact mode needs no division).
		if num.Cmp(num.Mul(st.sumDelta[v], st.fPlusEps), st.fWT[v]) >= 0 {
			st.inCover[v] = true
			st.joined[v] = true
			st.doneV[v] = true
			its.Joined++
			continue
		}
		// 3d: while Σδ > w·(1 - 2^{-(ℓ+1)}) ⇔ Σδ + w·2^{-(ℓ+1)} > w.
		for num.Cmp(num.Add(st.sumDelta[v], num.HalfPow(st.wT[v], st.level[v]+1)), st.wT[v]) > 0 {
			st.level[v]++
			st.inc[v]++
		}
		if st.inc[v] > 0 {
			st.stuckCur[v] = 0 // new level: Lemma 7 counter restarts
		}
		if st.inc[v] > 0 {
			its.LevelIncrements += st.inc[v]
			if st.inc[v] > its.MaxLevelIncrement {
				its.MaxLevelIncrement = st.inc[v]
			}
		}
		// 3e: raise iff α·(Σ_{E'(v)} bid after own halvings) ≤ w·2^{-(ℓ+1)}.
		view := st.num.HalfPow(st.sumBid[v], st.inc[v])
		if num.Cmp(num.Mul(st.alphaV[v], view), num.HalfPow(st.wT[v], st.level[v]+1)) <= 0 {
			st.raise[v] = true
		} else {
			st.raise[v] = false
			its.StuckVertices++
			st.stuckCur[v]++
			if st.stuckCur[v] > st.stuckMax[v] {
				st.stuckMax[v] = st.stuckCur[v]
			}
		}
	}
}

// edgePhase runs steps 3b/3c (covered propagation), the bid halvings of 3d,
// and 3f (raise and dual update) for every uncovered edge.
func (st *state[T]) edgePhase(its *IterationStats) {
	num, g := st.num, st.g
	for e := 0; e < g.NumEdges(); e++ {
		if st.covered[e] {
			continue
		}
		vs := g.Edge(hypergraph.EdgeID(e))
		nowCovered := false
		halvings := 0
		allRaise := true
		for _, v := range vs {
			if st.joined[v] {
				nowCovered = true
			}
			halvings += st.inc[v]
			if !st.raise[v] {
				allRaise = false
			}
		}
		if nowCovered {
			st.covered[e] = true
			st.uncovered--
			its.CoveredEdges++
			for _, v := range vs {
				st.uncovDeg[v]--
			}
			continue
		}
		if halvings > 0 {
			st.bid[e] = num.HalfPow(st.bid[e], halvings)
		}
		if allRaise {
			st.bid[e] = num.Mul(st.bid[e], st.alphaE[e])
			its.RaisedEdges++
			st.raises[e]++
		}
		add := st.bid[e]
		if st.opts.Variant == VariantSingleLevel {
			add = num.HalfPow(add, 1)
		}
		st.delta[e] = num.Add(st.delta[e], add)
		for _, v := range vs {
			st.sumDelta[v] = num.Add(st.sumDelta[v], add)
		}
	}
}

// refreshVertexAggregates recomputes sumBid (and alphaV under AlphaLocal)
// from the surviving uncovered edges, and retires vertices whose incident
// edges are all covered.
func (st *state[T]) refreshVertexAggregates() {
	num, g := st.num, st.g
	for v := 0; v < g.NumVertices(); v++ {
		if st.doneV[v] {
			continue
		}
		if st.uncovDeg[v] == 0 {
			st.doneV[v] = true
			continue
		}
		st.sumBid[v] = num.Zero()
		if st.localAlpha {
			st.alphaV[v] = num.FromFloat(2)
		}
	}
	for e := 0; e < g.NumEdges(); e++ {
		if st.covered[e] {
			continue
		}
		for _, v := range g.Edge(hypergraph.EdgeID(e)) {
			st.sumBid[v] = num.Add(st.sumBid[v], st.bid[e])
			if st.localAlpha && num.Cmp(st.alphaE[e], st.alphaV[v]) > 0 {
				st.alphaV[v] = st.alphaE[e]
			}
		}
	}
}

// fill converts the final state into a Result.
func (st *state[T]) fill(res *Result) {
	num, g := st.num, st.g
	res.InCover = append([]bool(nil), st.inCover...)
	res.Dual = make([]float64, g.NumEdges())
	for e := range res.Dual {
		res.Dual[e] = num.Float(st.delta[e])
	}
	finish(g, res)
	for _, l := range st.level {
		if l > res.MaxLevel {
			res.MaxLevel = l
		}
	}
	if st.opts.CollectTrace {
		res.EdgeRaises = append([]int(nil), st.raises...)
		res.MaxStuckPerLevel = append([]int(nil), st.stuckMax...)
	}
	res.Rounds = lockstepRounds(g.NumEdges(), res.Iterations)
}

// lockstepRounds is the CONGEST round count of a lockstep run: 2 rounds
// for iteration 0 plus 2 per iteration (Appendix B mapping), or 1 when
// there is no edge to cover.
func lockstepRounds(m, iterations int) int {
	if m == 0 {
		return 1
	}
	return 2 + 2*iterations
}
