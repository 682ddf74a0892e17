package core

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"distcover/internal/hypergraph"
	"distcover/internal/telemetry"
)

// This file implements the frontier runner, the one float64 solver: the
// generic lockstep runner (runner.go) serves only exact arithmetic and the
// tests' float64 reference. It runs over an owned vertex range [lo, hi):
// the whole instance for Run, one contiguous partition for RunPartition
// and RunPartitioned (partition.go), which add an Exchanger called between
// the vertex phase and the fused edge+gather phase (boundary states) and
// after it (coverage counts).
//
// Each phase of an iteration becomes a parallel-for over chunks of the
// current frontier with per-chunk partial statistics and a deterministic
// reduction, and the one scatter in the sequential runner — edges adding
// their dual increment into every member vertex's Σδ — is inverted into a
// per-vertex gather over the incidence CSR. The gather visits each vertex's
// incident edges in ascending edge id, which is exactly the order the
// sequential edge loop scatters in, so every float accumulates the same
// addends in the same order: the runner is bit-identical to runLockstep
// (and therefore to all CONGEST engines), independent of the worker count
// and of the partition plan. The engine and partition equivalence tests
// enforce this.
//
// Frontier tracking: the runner maintains two compact ascending index
// lists — activeV, the owned vertices with doneV false, and liveE, the
// uncovered local edges (edges with a member in the owned range) — and
// compacts both in place at the end of each iteration. Phases iterate the
// frontier, not the whole range, so per-iteration work is proportional to
// the residual instance (the accounting the paper's round bounds assume),
// covered edges are never revisited, and the per-iteration trace counters
// fall out of the list lengths. The compaction preserves two invariants the
// phase bodies rely on: every vertex of a live edge is active (a vertex
// retires only once all its edges are covered, and a joining vertex covers
// its edges in the same iteration it joins — on every partition holding
// the edge, since the boundary exchange delivers the join to all of them),
// and newly[e] is false for every edge outside liveE (cleared exactly once,
// when the edge is dropped from the list).
//
// Barriers: an iteration synchronizes twice, not three times. The vertex
// phase is one parallel-for; the edge and gather phases are fused into a
// second one, where each participant drains edge chunks from a shared
// atomic counter, waits on an internal completion count (edgeWG), and then
// drains gather chunks — the gather of one iteration never overlaps the
// edge writes (addE, newly, covered, bid) it reads. Chunks are grabbed
// work-stealing style, several per worker, so an imbalanced power-law
// frontier does not leave workers idle at the barrier. When a tracer is
// attached the runner instead runs the edge and gather phases as separate
// timed parallel-fors so per-phase durations stay observable — same
// arithmetic, same results, one more barrier.
//
// State and scratch live in an arena (arena.go). Whole-instance solves take
// it from a pool, so a warm solve — in particular every residual re-solve
// of a Session — performs no per-slice allocations; partition runs carve a
// fresh one and use one worker. Worker goroutines are started per solve
// from pooled scaffolding and stopped before the solver is released;
// tokens, not closures, cross the dispatch channel, keeping the steady
// state allocation-free.
//
// The kernels bind floatNumeric statically, so its methods inline. Each
// arithmetic step must stay a separate IEEE operation in the order the
// generic runner performs it: CI fails if the arm64 build fuses a
// multiply-add inside a flatRun method.
//
// Run routes exact (big.Rat) runs to the generic lockstep runner: rational
// arithmetic is allocation-bound rather than memory-bound, and the results
// are identical by construction.

// flatEdgeVisits, when non-nil, receives the number of live edges the edge
// phase is about to visit, once per iteration. Test instrumentation only:
// the frontier property that covered edges are never revisited is asserted
// by summing these counts against the sequential runner's trace.
var flatEdgeVisits func(liveEdges int)

// Phases of the flat runner's parallel-for dispatch. The fused
// fpEdgeGather is the default; fpEdge/fpGather are its split halves, used
// when a tracer needs separately timed phases.
const (
	fpInitVertex uint8 = iota
	fpInitEdge
	fpInitGather
	fpVertex
	fpEdgeGather
	fpEdge
	fpGather
)

const (
	// flatMinChunk is the smallest frontier slice worth shipping to the
	// worker pool; below twice this, a phase runs inline on the
	// coordinator and the barrier is skipped entirely (late rounds touch
	// tiny frontiers).
	flatMinChunk = 1024
	// flatChunksPerWorker oversubscribes the chunk grid so work-stealing
	// can rebalance power-law frontiers: a worker that lands on a chunk of
	// hub vertices simply grabs fewer chunks.
	flatChunksPerWorker = 4
)

// flatRun is the frontier runner's scaffolding around the solver state. It
// lives inside floatSolver (arena.go); sticky fields (work channel, loopFn,
// partStats) survive across pooled solves, everything else is
// reinitialized per run. The partition fields are set only on the fresh
// solvers of partition runs, so pooled whole-instance solvers never carry
// an exchanger.
type flatRun struct {
	st      *state[float64]
	workers int

	// Owned vertex range: the vertices this run advances, reports and
	// checks. The whole instance [0, n) without an exchanger.
	lo, hi int

	// Partition runs only: the exchanger, this run's partition index in the
	// plan, and the reusable boundary frame (partition.go).
	ex     Exchanger
	part   int
	bounds []int
	frame  []BoundaryState

	// Frontier lists: activeV holds the owned vertices with doneV false,
	// liveE the uncovered local edges, both ascending, both compacted in
	// place at the end of each iteration.
	activeV []int
	liveE   []int

	// Per-edge iteration scratch, written by edge chunks and read by vertex
	// gather chunks after the fused phase's internal completion wait.
	addE  []float64 // dual increment of a live edge this iteration
	newly []bool    // edge became covered this iteration

	// Per-chunk partials, merged by the coordinator after each barrier.
	partStats []IterationStats

	carry []float64 // warm-start loads, set only during initialization

	// Dispatch state of the phase in flight. next/next2 are the
	// work-stealing cursors over the (first, gather) chunk grids.
	phase       uint8
	tasks       int
	gatherTasks int
	lastTasks   int
	next        atomic.Int32
	next2       atomic.Int32

	edgeWG   sync.WaitGroup // fused phase: edge chunks outstanding
	phaseWG  sync.WaitGroup // helpers still inside the phase
	workerWG sync.WaitGroup // helper goroutines alive
	work     chan int8      // 1 = run the phase in flight, -1 = exit
	loopFn   func()         // bound workerLoop, kept so `go` spawns allocate nothing new

	// chunkNS holds per-chunk wall-clock of the phase in flight for the
	// chunk-imbalance telemetry. Allocated only when a tracer is set, so
	// the default path's exact allocation gate is untouched.
	chunkNS []int64
}

// bind prepares s for one solve of g over the owned vertex range [lo, hi)
// with nLive local edges (all m for the whole instance): it sizes the arena
// for the state, the per-edge scratch and the frontier lists, carves them
// out of it, and starts workers-1 helper goroutines.
func (s *floatSolver) bind(g *hypergraph.Hypergraph, opts Options, lo, hi, nLive, workers int) *flatRun {
	n, m := g.NumVertices(), g.NumEdges()
	a := &s.arena
	a.reset(4*m+5*n, 5*n+m+(hi-lo)+nLive, 2*m+4*n)
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
	r := &s.run
	r.st, r.workers, r.lo, r.hi = &s.st, workers, lo, hi
	r.addE = a.f64(m)
	r.newly = a.boolsZero(m)
	r.activeV = a.intsRaw(hi - lo)[:0]
	r.liveE = a.intsRaw(nLive)[:0]
	maxTasks := maxInt(workers*flatChunksPerWorker, 1)
	if cap(r.partStats) < maxTasks {
		r.partStats = make([]IterationStats, maxTasks)
	}
	r.partStats = r.partStats[:maxTasks]
	if opts.Tracer != nil {
		r.chunkNS = make([]int64, maxTasks)
	} else {
		r.chunkNS = nil
	}
	r.startWorkers()
	return r
}

// hasMemberIn reports whether the edge with vertex list vs has a member in
// [lo, hi) — whether the edge is local to that range.
func hasMemberIn(vs []hypergraph.VertexID, lo, hi int) bool {
	for _, v := range vs {
		if int(v) >= lo && int(v) < hi {
			return true
		}
	}
	return false
}

// run executes the solve over the bound range; it mirrors runLockstep
// phase for phase (see that function for the algorithm commentary). It
// returns the run parameters, the iteration count and the trace; the
// caller reads the cover and duals off the state. With an exchanger the
// loop ends on the global uncovered count the coverage exchange rebuilds
// identically on every partition.
func (r *flatRun) run(carry []float64) (*Result, error) {
	st := r.st
	g, opts := st.g, st.opts
	n, m := g.NumVertices(), g.NumEdges()
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
	le := r.liveE
	for e := 0; e < m; e++ {
		if hasMemberIn(g.Edge(hypergraph.EdgeID(e)), r.lo, r.hi) {
			le = append(le, e)
		}
	}
	r.liveE = le
	// Every vertex is seeded, not only the owned ones: a warm start derives
	// the levels of the out-of-range members of local edges, which feed
	// their iteration-0 bids.
	r.carry = carry
	r.dispatch(fpInitVertex, r.grid(n), 0)
	r.dispatch(fpInitEdge, r.grid(len(r.liveE)), 0)
	r.dispatch(fpInitGather, r.grid(r.hi-r.lo), 0)
	r.carry = nil
	av := r.activeV
	for v := r.lo; v < r.hi; v++ {
		if !st.doneV[v] {
			av = append(av, v)
		}
	}
	r.activeV = av
	if tr != nil {
		tr.Phase(0, telemetry.PhaseInit, time.Since(t0), r.maxChunkDur())
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
		vt := r.grid(len(r.activeV))
		r.dispatch(fpVertex, vt, 0)
		for c := 0; c < vt; c++ {
			p := &r.partStats[c]
			its.Joined += p.Joined
			its.LevelIncrements += p.LevelIncrements
			its.StuckVertices += p.StuckVertices
			if p.MaxLevelIncrement > its.MaxLevelIncrement {
				its.MaxLevelIncrement = p.MaxLevelIncrement
			}
		}
		if tr != nil {
			tr.Phase(res.Iterations, telemetry.PhaseVertex, time.Since(t0), r.maxChunkDur())
		}
		if r.ex != nil {
			if err := r.exchangeBoundary(res.Iterations); err != nil {
				return nil, err
			}
		}
		if tr != nil {
			t0 = time.Now()
		}
		if flatEdgeVisits != nil {
			flatEdgeVisits(len(r.liveE))
		}
		et := r.grid(len(r.liveE))
		if tr != nil {
			r.dispatch(fpEdge, et, 0)
			tr.Phase(res.Iterations, telemetry.PhaseEdge, time.Since(t0), r.maxChunkDur())
			t0 = time.Now()
			r.dispatch(fpGather, r.grid(len(r.activeV)), 0)
			tr.Phase(res.Iterations, telemetry.PhaseGather, time.Since(t0), r.maxChunkDur())
		} else {
			r.dispatch(fpEdgeGather, et, r.grid(len(r.activeV)))
		}
		for c := 0; c < et; c++ {
			p := &r.partStats[c]
			its.CoveredEdges += p.CoveredEdges
			its.RaisedEdges += p.RaisedEdges
		}
		covered := its.CoveredEdges
		if r.ex != nil {
			var err error
			if covered, err = r.exchangeCoverage(res.Iterations, covered); err != nil {
				return nil, err
			}
		}
		st.uncovered -= covered
		r.compactFrontiers()
		if opts.CheckInvariants {
			if err := st.checkInvariants(res.Iterations, res.Z, r.lo, r.hi); err != nil {
				return nil, err
			}
		}
		if opts.CollectTrace {
			its.ActiveEdges = st.uncovered
			its.ActiveVertices = len(r.activeV)
			res.Trace = append(res.Trace, its)
		}
	}
	return res, nil
}

// finishFlat tears a flat solve down in the order the pool requires: stop
// the helper goroutines (nothing may run when the solver is pooled), then
// release the arena-backed state.
func (s *floatSolver) finishFlat() {
	s.run.stopWorkers()
	s.run.carry = nil
	s.release()
}

// grid sizes the chunk grid for a phase over items frontier entries: 1 (run
// inline, no barrier) for small frontiers or single-worker runs, otherwise
// enough flatMinChunk-sized chunks for work-stealing, capped at
// flatChunksPerWorker per worker. The chunk count never affects results —
// per-chunk statistics are order-independent sums and every float lands on
// a fixed owner — so it is free to vary with the frontier.
func (r *flatRun) grid(items int) int {
	if r.workers == 1 || items < 2*flatMinChunk {
		return 1
	}
	t := items / flatMinChunk
	if limit := r.workers * flatChunksPerWorker; t > limit {
		t = limit
	}
	return t
}

// gridRange returns chunk c's half-open slice bounds of items split into
// tasks near-equal chunks.
func gridRange(items, tasks, c int) (int, int) {
	return c * items / tasks, (c + 1) * items / tasks
}

// startWorkers brings up workers-1 helper goroutines on the pooled dispatch
// channel. The channel and the bound loop function are created once per
// pooled flatRun and reused by later solves.
func (r *flatRun) startWorkers() {
	if r.workers <= 1 {
		return
	}
	if r.work == nil || cap(r.work) < r.workers {
		r.work = make(chan int8, r.workers)
	}
	if r.loopFn == nil {
		r.loopFn = r.workerLoop
	}
	r.workerWG.Add(r.workers - 1)
	for i := 0; i < r.workers-1; i++ {
		go r.loopFn()
	}
}

// stopWorkers exits every helper and waits for them; the channel itself is
// never closed, so the next solve can reuse it.
func (r *flatRun) stopWorkers() {
	if r.workers <= 1 {
		return
	}
	for i := 0; i < r.workers-1; i++ {
		r.work <- -1
	}
	r.workerWG.Wait()
}

func (r *flatRun) workerLoop() {
	defer r.workerWG.Done()
	for tok := range r.work {
		if tok < 0 {
			return
		}
		r.runPhase()
		r.phaseWG.Done()
	}
}

// dispatch runs one phase to completion: it publishes the dispatch state,
// wakes the helpers (unless the grid is a single chunk, which runs inline
// with no barrier at all), participates itself, and returns only when every
// chunk has been processed. All happens-before edges between phases come
// from this barrier; the fused phase's internal edge→gather ordering comes
// from edgeWG.
func (r *flatRun) dispatch(phase uint8, tasks, gatherTasks int) {
	r.phase = phase
	r.tasks = tasks
	r.gatherTasks = gatherTasks
	r.lastTasks = tasks
	r.next.Store(0)
	r.next2.Store(0)
	if phase == fpEdgeGather {
		r.edgeWG.Add(tasks)
	}
	if r.workers == 1 || (tasks <= 1 && gatherTasks <= 1) {
		r.runPhase()
		return
	}
	helpers := r.workers - 1
	r.phaseWG.Add(helpers)
	for i := 0; i < helpers; i++ {
		r.work <- 1
	}
	r.runPhase()
	r.phaseWG.Wait()
}

// runPhase drains chunks of the phase in flight until the grid is empty.
// For the fused edge+gather phase each participant first drains edge
// chunks, then waits for all edge chunks to complete (the internal
// non-coordinator barrier that replaces the old third global one), then
// drains gather chunks.
func (r *flatRun) runPhase() {
	for {
		c := int(r.next.Add(1)) - 1
		if c >= r.tasks {
			break
		}
		if r.chunkNS != nil {
			t0 := time.Now()
			r.runChunk(c)
			r.chunkNS[c] = int64(time.Since(t0))
		} else {
			r.runChunk(c)
		}
		if r.phase == fpEdgeGather {
			r.edgeWG.Done()
		}
	}
	if r.phase == fpEdgeGather {
		r.edgeWG.Wait()
		nAct := len(r.activeV)
		for {
			c := int(r.next2.Add(1)) - 1
			if c >= r.gatherTasks {
				break
			}
			lo, hi := gridRange(nAct, r.gatherTasks, c)
			r.gatherRange(lo, hi)
		}
	}
}

func (r *flatRun) runChunk(c int) {
	switch r.phase {
	case fpInitVertex:
		lo, hi := gridRange(r.st.g.NumVertices(), r.tasks, c)
		r.initVertexRange(lo, hi)
	case fpInitEdge:
		lo, hi := gridRange(len(r.liveE), r.tasks, c)
		r.initEdgeRange(lo, hi)
	case fpInitGather:
		lo, hi := gridRange(r.hi-r.lo, r.tasks, c)
		r.initGatherRange(r.lo+lo, r.lo+hi)
	case fpVertex:
		lo, hi := gridRange(len(r.activeV), r.tasks, c)
		r.vertexRange(lo, hi, &r.partStats[c])
	case fpEdgeGather, fpEdge:
		lo, hi := gridRange(len(r.liveE), r.tasks, c)
		r.edgeRange(lo, hi, &r.partStats[c])
	case fpGather:
		lo, hi := gridRange(len(r.activeV), r.tasks, c)
		r.gatherRange(lo, hi)
	}
}

// maxChunkDur returns the longest chunk of the most recent parallel-for
// (tracing only; 0 when tracing is off).
func (r *flatRun) maxChunkDur() time.Duration {
	var max int64
	if r.chunkNS == nil {
		return 0
	}
	for _, ns := range r.chunkNS[:r.lastTasks] {
		if ns > max {
			max = ns
		}
	}
	return time.Duration(max)
}

// compactFrontiers drops this iteration's covered edges and retired
// vertices from the live lists, in place and in order. Dropping an edge is
// the one place its newly flag is cleared — each edge pays that write
// exactly once, instead of every remaining iteration scrubbing the whole
// edge array (the pre-frontier runner's behavior).
func (r *flatRun) compactFrontiers() {
	st := r.st
	le := r.liveE[:0]
	for _, e := range r.liveE {
		if st.covered[e] {
			r.newly[e] = false
		} else {
			le = append(le, e)
		}
	}
	r.liveE = le
	av := r.activeV[:0]
	for _, v := range r.activeV {
		if !st.doneV[v] {
			av = append(av, v)
		}
	}
	r.activeV = av
}

// initVertexRange seeds vertices [lo,hi): weights, carried loads and level
// derivation on a warm start, uncovered degrees. The parallel form of the
// first loop of state.initIterationZero.
func (r *flatRun) initVertexRange(lo, hi int) {
	st, g := r.st, r.st.g
	num := floatNumeric{}
	carry := r.carry
	for v := lo; v < hi; v++ {
		w := g.Weight(hypergraph.VertexID(v))
		st.wT[v] = float64(w)
		st.fWT[v] = float64(w * int64(maxInt(g.Rank(), 1)))
		st.sumDelta[v] = 0
		if carry != nil {
			st.sumDelta[v] = carry[v]
			for num.Add(st.sumDelta[v], num.HalfPow(st.wT[v], st.level[v]+1)) > st.wT[v] {
				st.level[v]++
			}
		}
		st.sumBid[v] = 0
		st.uncovDeg[v] = g.Degree(hypergraph.VertexID(v))
		if st.uncovDeg[v] == 0 {
			st.doneV[v] = true
		}
	}
}

// initEdgeRange computes the iteration-0 bids of the local edges in
// frontier positions [lo,hi): the second loop of state.initIterationZero.
// A cut edge gets the same bid on every partition holding it.
func (r *flatRun) initEdgeRange(lo, hi int) {
	st, g := r.st, r.st.g
	num := floatNumeric{}
	carry := r.carry
	for _, e := range r.liveE[lo:hi] {
		vs := g.Edge(hypergraph.EdgeID(e))
		ve := vs[0]
		var b float64
		if carry == nil {
			for _, v := range vs[1:] {
				// argmin w(v)/|E(v)| with deterministic tie-break on lower
				// id, compared in exact integers (see runner.go).
				if g.Weight(v)*int64(g.Degree(ve)) < g.Weight(ve)*int64(g.Degree(v)) {
					ve = v
				}
			}
			b = num.FromRatio(g.Weight(ve), 2*int64(g.Degree(ve)))
		} else {
			best := num.HalfPow(num.FromRatio(g.Weight(ve), int64(g.Degree(ve))), st.level[ve])
			for _, v := range vs[1:] {
				cand := num.HalfPow(num.FromRatio(g.Weight(v), int64(g.Degree(v))), st.level[v])
				if cand < best {
					ve, best = v, cand
				}
			}
			b = num.HalfPow(num.FromRatio(g.Weight(ve), 2*int64(g.Degree(ve))), st.level[ve])
		}
		st.bid[e] = b
		st.delta[e] = b
	}
}

// initGatherRange folds the iteration-0 bids into the Σδ / Σbid aggregates
// of vertices [lo,hi), in ascending edge id — the sequential scatter order.
func (r *flatRun) initGatherRange(lo, hi int) {
	st, g := r.st, r.st.g
	num := floatNumeric{}
	for v := lo; v < hi; v++ {
		for _, e := range g.Incident(hypergraph.VertexID(v)) {
			st.sumDelta[v] = num.Add(st.sumDelta[v], st.bid[e])
			st.sumBid[v] = num.Add(st.sumBid[v], st.bid[e])
		}
	}
}

// vertexRange runs steps 3a/3d/3e for the active vertices in frontier
// positions [lo,hi). The body is the sequential one verbatim, minus the
// doneV test the frontier makes redundant, with per-chunk statistics.
func (r *flatRun) vertexRange(lo, hi int, part *IterationStats) {
	st := r.st
	num := floatNumeric{}
	*part = IterationStats{}
	for _, v := range r.activeV[lo:hi] {
		st.inc[v] = 0
		st.joined[v] = false
		if num.Cmp(num.Mul(st.sumDelta[v], st.fPlusEps), st.fWT[v]) >= 0 {
			st.inCover[v] = true
			st.joined[v] = true
			st.doneV[v] = true
			part.Joined++
			continue
		}
		for num.Cmp(num.Add(st.sumDelta[v], num.HalfPow(st.wT[v], st.level[v]+1)), st.wT[v]) > 0 {
			st.level[v]++
			st.inc[v]++
		}
		if st.inc[v] > 0 {
			st.stuckCur[v] = 0
			part.LevelIncrements += st.inc[v]
			if st.inc[v] > part.MaxLevelIncrement {
				part.MaxLevelIncrement = st.inc[v]
			}
		}
		view := num.HalfPow(st.sumBid[v], st.inc[v])
		if num.Cmp(num.Mul(st.alphaV[v], view), num.HalfPow(st.wT[v], st.level[v]+1)) <= 0 {
			st.raise[v] = true
		} else {
			st.raise[v] = false
			part.StuckVertices++
			st.stuckCur[v]++
			if st.stuckCur[v] > st.stuckMax[v] {
				st.stuckMax[v] = st.stuckCur[v]
			}
		}
	}
}

// edgeRange runs the per-edge half of steps 3b/3c/3d/3f for the live edges
// in frontier positions [lo,hi): each decides covered-vs-live, halves and
// raises its bid, and records its dual increment in addE for the gather
// half. Only live edges are visited — the covered test (and the dead
// newly[e] reset) of the pre-frontier runner is gone. A newly covered edge
// is counted only by its owner, the range holding its minimum vertex vs[0]
// (a local edge has a member below hi, so vs[0] ≥ lo means ownership), so
// cut edges replicated on several partitions are counted once.
func (r *flatRun) edgeRange(lo, hi int, part *IterationStats) {
	st, g := r.st, r.st.g
	num := floatNumeric{}
	*part = IterationStats{}
	for _, e := range r.liveE[lo:hi] {
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
			r.newly[e] = true
			if int(vs[0]) >= r.lo {
				part.CoveredEdges++
			}
			continue
		}
		if halvings > 0 {
			st.bid[e] = num.HalfPow(st.bid[e], halvings)
		}
		if allRaise {
			st.bid[e] = num.Mul(st.bid[e], st.alphaE[e])
			part.RaisedEdges++
			st.raises[e]++
		}
		add := st.bid[e]
		if st.opts.Variant == VariantSingleLevel {
			add = num.HalfPow(add, 1)
		}
		st.delta[e] = num.Add(st.delta[e], add)
		r.addE[e] = add
	}
}

// gatherRange is the vertex-side completion of the edge phase plus the
// aggregate refresh for the active vertices in frontier positions [lo,hi),
// fused into one incidence walk per vertex: newly covered edges decrement
// the uncovered degree, live edges contribute their dual increment to Σδ
// and their bid to the refreshed Σbid — both in ascending edge id, the
// order the sequential runner applies them in. Vertices that joined in this
// iteration's vertex phase are still listed in activeV (compaction runs
// after the phase) and are skipped here, exactly as the sequential refresh
// skips done vertices.
func (r *flatRun) gatherRange(lo, hi int) {
	st, g := r.st, r.st.g
	num := floatNumeric{}
	for _, v := range r.activeV[lo:hi] {
		if st.doneV[v] {
			continue
		}
		deg := st.uncovDeg[v]
		sumBid := 0.0
		alphaV := st.alphaV[v]
		if st.localAlpha {
			alphaV = 2
		}
		for _, e := range g.Incident(hypergraph.VertexID(v)) {
			if r.newly[e] {
				deg--
				continue
			}
			if st.covered[e] {
				continue
			}
			st.sumDelta[v] = num.Add(st.sumDelta[v], r.addE[e])
			sumBid = num.Add(sumBid, st.bid[e])
			if st.localAlpha && st.alphaE[e] > alphaV {
				alphaV = st.alphaE[e]
			}
		}
		st.uncovDeg[v] = deg
		if deg == 0 {
			st.doneV[v] = true
			continue
		}
		st.sumBid[v] = sumBid
		if st.localAlpha {
			st.alphaV[v] = alphaV
		}
	}
}

// csrOffsets adapts a hypergraph offset view for volumeBounds: the
// zero-value graph exposes empty offset arrays, which stand for zero
// items. (Used by the partition planner; the flat runner itself now
// rebalances dynamically via work-stealing chunks.)
func csrOffsets(off []int) []int {
	if len(off) == 0 {
		return []int{0}
	}
	return off
}

// volumeBounds partitions items 0..len(off)-2 into parts contiguous chunks
// of roughly equal volume, where off is the cumulative volume (off[i] =
// volume of items < i). Chunk c covers [bounds[c], bounds[c+1]). Items with
// zero volume cannot skew a chunk, and an all-zero volume falls back to an
// equal item split.
func volumeBounds(off []int, parts int) []int {
	items := len(off) - 1
	bounds := make([]int, parts+1)
	total := off[items]
	if total == 0 {
		for c := 0; c <= parts; c++ {
			bounds[c] = c * items / parts
		}
		return bounds
	}
	for c := 1; c < parts; c++ {
		target := total * c / parts
		i := sort.SearchInts(off, target)
		if i > items {
			i = items
		}
		if i < bounds[c-1] {
			i = bounds[c-1]
		}
		bounds[c] = i
	}
	bounds[parts] = items
	return bounds
}
