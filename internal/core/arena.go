package core

import "sync"

// This file implements the arena-backed solver state the frontier runner
// allocates from. The ~20 per-vertex and per-edge slices of state plus the
// runner's scratch (addE, newly, frontier lists) are carved out of three
// element-typed slabs held by a floatSolver (floatSolver.bind), so a warm
// pooled solve performs no per-field allocations and the GC never sees
// the inner loop. The pool is shared by one-shot solves and Session
// residual re-solves: a session applying delta batches reuses the same
// slabs across updates. A partition run (RunPartition) instead takes a
// fresh floatSolver sized to its range and local edges and drops it with
// the run.
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

// release drops the references that would pin caller memory (the
// hypergraph, the options' tracer) and returns the solver — slabs intact —
// to the pool. Callers must not touch state slices after this.
func (s *floatSolver) release() {
	s.st.g = nil
	s.st.opts = Options{}
	s.run.st = nil
	floatSolverPool.Put(s)
}
