package core

import (
	"sync"

	"distcover/internal/hypergraph"
)

// This file implements the arena-backed solver state the float64 runners
// (the sequential lockstep simulator and the frontier runner) allocate
// from. The ~20 per-vertex and per-edge slices of state plus the frontier
// runner's scratch (addE, newly, frontier lists) are carved out of three
// element-typed slabs held by a floatSolver, so a warm pooled solve
// performs no per-field allocations and the GC never sees the inner loop.
// The pool is shared by one-shot solves and Session residual re-solves: a
// session applying delta batches reuses the same slabs across updates. A
// partition run (RunPartition) instead takes a fresh floatSolver sized to
// its range and local edges and drops it with the run.
//
// Pooled memory is reused, not implicitly zeroed, so every carve either
// declares that the runner fully initializes the slice before reading it
// (floats, uncovDeg, frontier lists) or asks for an explicit clear (flags
// and counters whose zero value is load-bearing). Results never alias the
// slabs: state.fill copies everything it exports, which is what makes
// releasing the solver before returning safe.
//
// The exact-arithmetic path keeps plain make-based state (newState):
// big.Rat runs are allocation-bound in the rationals themselves, and the
// slab layout only fits fixed-size elements.

// solveArena holds the backing slabs, one per element size/type, and
// carves typed slices off them sequentially.
type solveArena struct {
	floats     []float64
	ints       []int
	bools      []bool
	nf, ni, nb int
}

// reset prepares the arena for a run needing the given element counts,
// growing each slab only when the capacity from earlier runs is too small.
func (a *solveArena) reset(nf, ni, nb int) {
	if cap(a.floats) < nf {
		a.floats = make([]float64, nf)
	}
	if cap(a.ints) < ni {
		a.ints = make([]int, ni)
	}
	if cap(a.bools) < nb {
		a.bools = make([]bool, nb)
	}
	a.nf, a.ni, a.nb = 0, 0, 0
}

// f64 carves a float slice the caller fully initializes before reading
// (stale values from earlier runs are never observed). The three-index cap
// keeps appends from bleeding into the neighboring carve.
func (a *solveArena) f64(n int) []float64 {
	s := a.floats[a.nf : a.nf+n : a.nf+n]
	a.nf += n
	return s
}

// intsRaw carves an int slice the caller fully initializes.
func (a *solveArena) intsRaw(n int) []int {
	s := a.ints[a.ni : a.ni+n : a.ni+n]
	a.ni += n
	return s
}

// intsZero carves an int slice cleared to zero.
func (a *solveArena) intsZero(n int) []int {
	s := a.intsRaw(n)
	clear(s)
	return s
}

// boolsZero carves a bool slice cleared to false.
func (a *solveArena) boolsZero(n int) []bool {
	s := a.bools[a.nb : a.nb+n : a.nb+n]
	a.nb += n
	clear(s)
	return s
}

// floatSolver bundles the solver state, the frontier runner's scaffolding
// and the arena they are carved from into one allocation.
type floatSolver struct {
	st    state[float64]
	run   flatRun
	arena solveArena
}

var floatSolverPool = sync.Pool{New: func() any { return new(floatSolver) }}

// initState carves a fresh state for g out of the arena, reserving room
// for extraF floats, extraI ints and extraB bools the caller carves after
// it (the frontier runner's per-edge scratch and frontier lists).
func (s *floatSolver) initState(g *hypergraph.Hypergraph, opts Options, extraF, extraI, extraB int) *state[float64] {
	n, m := g.NumVertices(), g.NumEdges()
	s.arena.reset(3*m+5*n+extraF, 5*n+m+extraI, m+4*n+extraB)
	a := &s.arena
	num := floatNumeric{}
	f := g.Rank()
	s.st = state[float64]{
		num:  num,
		g:    g,
		opts: opts,

		bid:     a.f64(m),
		delta:   a.f64(m),
		covered: a.boolsZero(m),
		alphaE:  a.f64(m),

		level:     a.intsZero(n),
		sumDelta:  a.f64(n),
		sumBid:    a.f64(n),
		alphaV:    a.f64(n),
		inCover:   a.boolsZero(n),
		doneV:     a.boolsZero(n),
		uncovDeg:  a.intsRaw(n), // written for every vertex in iteration 0
		inc:       a.intsZero(n),
		raise:     a.boolsZero(n),
		joined:    a.boolsZero(n),
		raises:    a.intsZero(m),
		stuckCur:  a.intsZero(n),
		stuckMax:  a.intsZero(n),
		wT:        a.f64(n),
		fWT:       a.f64(n),
		fPlusEps:  num.Add(num.FromRatio(int64(maxInt(f, 1)), 1), num.FromFloat(opts.Epsilon)),
		uncovered: m,
	}
	return &s.st
}

// release drops the references that would pin caller memory (the
// hypergraph, the options' tracer) and returns the solver — slabs intact —
// to the pool. Callers must not touch state slices after this.
func (s *floatSolver) release() {
	s.st.g = nil
	s.st.opts = Options{}
	s.run.st = nil
	floatSolverPool.Put(s)
}

// runLockstepFloat is the pooled float64 form of runLockstep: the default
// production path of Run, cold or warm-started. Bit-identical to a make-based
// run — the arena only changes where the slices live.
func runLockstepFloat(g *hypergraph.Hypergraph, opts Options, carry []float64) (*Result, error) {
	s := floatSolverPool.Get().(*floatSolver)
	st := s.initState(g, opts, 0, 0, 0)
	res, err := runLockstepOn(st, carry)
	s.release()
	return res, err
}
