package core

import (
	"errors"
	"fmt"
	"time"

	"distcover/internal/hypergraph"
	"distcover/internal/telemetry"
)

// This file holds the partition side of multi-process cover clusters
// (internal/cluster, distcover.ClusterSolve) and in-process partitioned
// solves (RunPartitioned): Algorithm MWHVC over one contiguous vertex range
// of the CSR layout, synchronized with the other partitions only through
// per-iteration exchanges. The phases themselves are the frontier runner's
// (flat.go), bound to the range and an Exchanger; this file adds the plan,
// the boundary frames and the assembly of the partitions' shares.
//
// The decomposition exploits the locality the paper's lockstep algorithm
// already has. An iteration is three phases:
//
//   - the vertex phase touches only a vertex's own aggregates,
//   - the edge phase reads only the vertex-phase outputs (level increments,
//     join and raise flags) of the edge's member vertices,
//   - the gather phase folds the edge outputs back into the owning vertex's
//     aggregates, walking its incident edges in ascending id order.
//
// A partition therefore needs remote information exactly twice per
// iteration: the vertex-phase outputs of the boundary vertices it shares
// edges with (exchanged after the vertex phase), and the global count of
// newly covered edges for the termination test (exchanged after the edge
// and gather phases — the same 2-exchanges-per-iteration cadence as the
// CONGEST protocol's 2 rounds). Every cut edge is replicated on each
// partition that holds one of its members and evolves identically on all
// of them, because its bid/dual updates are a deterministic function of
// the exchanged vertex-phase outputs; the edge is counted and its dual
// reported once, by the partition owning its first (minimum) vertex.
//
// Bit-identity: every float operation a partition performs per vertex and
// per edge is the one the whole-instance run performs, in the same order,
// so AssembleParts reconstructs a Result bit-identical to Run (and
// therefore to runLockstep and every CONGEST engine). The partition
// equivalence tests enforce this for 1..8 partitions, cold and warm starts
// alike, with the invariants checked inside every partition.
//
// Exact (big.Rat) arithmetic is not supported: rationals have no canonical
// compact wire form, and the exact path exists for verification, not
// distribution.

// ErrPartitionOptions rejects configurations the partitioned runner cannot
// honor (exact arithmetic, malformed partition plans) and exchanged data
// the plan does not explain.
var ErrPartitionOptions = errors.New("core: invalid partition configuration")

// BoundaryState is one boundary vertex's per-iteration vertex-phase output:
// its absolute level after step 3d (receivers derive the increment from the
// previous level they hold), and the step 3a/3e join and raise flags.
type BoundaryState struct {
	V      int32
	Level  int32
	Joined bool
	Raise  bool
}

// BoundaryFrame is one partition's per-iteration boundary broadcast.
type BoundaryFrame struct {
	Part   int
	States []BoundaryState
}

// Exchanger synchronizes a partition with its peers once per phase pair.
// Implementations must deliver every partition's frame (own included) in
// ascending partition order — the runner fails the iteration otherwise;
// internal/cluster implements it over framed TCP through the coordinator,
// MemExchangerGroup over shared memory.
type Exchanger interface {
	// ExchangeBoundary publishes this partition's boundary vertex states for
	// the iteration and returns all partitions' frames.
	ExchangeBoundary(iteration int, local BoundaryFrame) ([]BoundaryFrame, error)
	// ExchangeCoverage publishes how many owned edges this partition newly
	// covered in the iteration and returns the global total.
	ExchangeCoverage(iteration int, coveredOwned int) (int, error)
}

// PartialResult is one partition's share of a clustered run, merged by
// AssembleParts.
type PartialResult struct {
	Part       int
	Iterations int
	MaxLevel   int // over the partition's own vertex range

	// Cover and CoverWeight describe the partition's own vertex range.
	Cover       []hypergraph.VertexID
	CoverWeight int64

	// DualEdges/DualValues hold δ(e) for the partition's owned edges (the
	// edges whose minimum vertex falls in its range), ascending by edge id.
	DualEdges  []int32
	DualValues []float64

	// Z, Alpha and Epsilon echo the run parameters every partition resolved
	// independently; AssembleParts cross-checks they agree.
	Z       int
	Alpha   float64
	Epsilon float64
}

// PlanPartitions returns contiguous vertex bounds (len parts+1) balanced by
// incidence-CSR volume, the same balancing the flat runner uses for its
// chunks. parts is clamped to [1, max(1, NumVertices)].
func PlanPartitions(g *hypergraph.Hypergraph, parts int) []int {
	if parts < 1 {
		parts = 1
	}
	if max := maxInt(g.NumVertices(), 1); parts > max {
		parts = max
	}
	return volumeBounds(csrOffsets(g.IncidenceOffsets()), parts)
}

// validateBounds checks a partition plan against g.
func validateBounds(g *hypergraph.Hypergraph, bounds []int, part int) error {
	if len(bounds) < 2 {
		return fmt.Errorf("%w: plan needs at least 2 bounds, got %d", ErrPartitionOptions, len(bounds))
	}
	if bounds[0] != 0 || bounds[len(bounds)-1] != g.NumVertices() {
		return fmt.Errorf("%w: bounds must span [0, %d], got [%d, %d]",
			ErrPartitionOptions, g.NumVertices(), bounds[0], bounds[len(bounds)-1])
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] < bounds[i-1] {
			return fmt.Errorf("%w: bounds not monotone at %d", ErrPartitionOptions, i)
		}
	}
	if part < 0 || part >= len(bounds)-1 {
		return fmt.Errorf("%w: partition %d of %d", ErrPartitionOptions, part, len(bounds)-1)
	}
	return nil
}

// RunPartition executes this partition's share of Algorithm MWHVC over g.
// Every partition must run the same g, opts, carry and bounds (the
// coordinator ships them in one setup frame); ex synchronizes the
// iterations. The returned PartialResult covers the partition's vertex
// range and owned edges only — AssembleParts merges the shares into a
// Result bit-identical to Run on the undivided instance.
func RunPartition(g *hypergraph.Hypergraph, opts Options, carry []float64, bounds []int, part int, ex Exchanger) (*PartialResult, error) {
	if err := opts.validate(g); err != nil {
		return nil, err
	}
	if opts.Exact {
		return nil, fmt.Errorf("%w: exact arithmetic is not distributable", ErrPartitionOptions)
	}
	if err := validateBounds(g, bounds, part); err != nil {
		return nil, err
	}
	if err := validateCarry(g, carry); err != nil {
		return nil, err
	}
	lo, hi := bounds[part], bounds[part+1]
	local := 0
	for e := 0; e < g.NumEdges(); e++ {
		if hasMemberIn(g.Edge(hypergraph.EdgeID(e)), lo, hi) {
			local++
		}
	}
	// A fresh solver, not the pool: its arena is sized to this range and
	// its local edges and dropped with the run.
	s := new(floatSolver)
	r := s.bind(g, opts, lo, hi, local, 1)
	r.ex, r.part, r.bounds = ex, part, bounds
	r.frame = boundaryFrame(g, lo, hi)
	res, err := r.run(carry)
	if err != nil {
		return nil, err
	}
	return r.partial(res), nil
}

// boundaryFrame returns the frame storage for the vertices of [lo, hi) that
// share an edge with another partition, ascending; fillFrame refreshes
// their states every iteration. An edge crosses the range exactly when its
// ascending vertex list starts below lo or ends at or past hi.
func boundaryFrame(g *hypergraph.Hypergraph, lo, hi int) []BoundaryState {
	onCut := func(v int) bool {
		for _, e := range g.Incident(hypergraph.VertexID(v)) {
			if vs := g.Edge(e); int(vs[0]) < lo || int(vs[len(vs)-1]) >= hi {
				return true
			}
		}
		return false
	}
	count := 0
	for v := lo; v < hi; v++ {
		if onCut(v) {
			count++
		}
	}
	frame := make([]BoundaryState, 0, count)
	for v := lo; v < hi; v++ {
		if onCut(v) {
			frame = append(frame, BoundaryState{V: int32(v)})
		}
	}
	return frame
}

// exchangeBoundary publishes the boundary vertices' vertex-phase outputs
// and folds the other partitions' into the local arrays. The wait is
// traced with peer "" — from a partition's view the one peer is the
// coordinator.
func (r *flatRun) exchangeBoundary(iteration int) error {
	tr := r.st.opts.Tracer
	var t0 time.Time
	if tr != nil {
		t0 = time.Now()
	}
	frames, err := r.ex.ExchangeBoundary(iteration, BoundaryFrame{Part: r.part, States: r.fillFrame()})
	if err != nil {
		return err
	}
	if tr != nil {
		tr.Exchange("", telemetry.ExchangeBoundary, iteration, time.Since(t0))
	}
	return r.applyFrames(frames)
}

// exchangeCoverage publishes how many owned edges this partition newly
// covered in the iteration and returns the global total.
func (r *flatRun) exchangeCoverage(iteration, covered int) (int, error) {
	tr := r.st.opts.Tracer
	var t0 time.Time
	if tr != nil {
		t0 = time.Now()
	}
	total, err := r.ex.ExchangeCoverage(iteration, covered)
	if err != nil {
		return 0, err
	}
	if tr != nil {
		tr.Exchange("", telemetry.ExchangeCoverage, iteration, time.Since(t0))
	}
	if total < covered || total > r.st.uncovered {
		return 0, fmt.Errorf("%w: coverage total %d out of range (own %d, uncovered %d)",
			ErrPartitionOptions, total, covered, r.st.uncovered)
	}
	return total, nil
}

// fillFrame snapshots the boundary vertices' vertex-phase outputs. Every
// boundary vertex is sent every iteration — including retired ones, whose
// flags no live edge will read — so receivers never hold stale levels.
func (r *flatRun) fillFrame() []BoundaryState {
	st := r.st
	for i := range r.frame {
		v := r.frame[i].V
		r.frame[i] = BoundaryState{
			V:      v,
			Level:  int32(st.level[v]),
			Joined: st.joined[v],
			Raise:  st.raise[v],
		}
	}
	return r.frame
}

// applyFrames folds the other partitions' boundary states into the local
// level/inc/joined/raise arrays; the level increment is the difference
// against the level held from the previous iteration. The frames must be
// the plan's partitions in ascending order, and each may only report
// vertices of its sender's range: anything else would overwrite state this
// partition owns (or that no peer owns) and is rejected.
func (r *flatRun) applyFrames(frames []BoundaryFrame) error {
	st := r.st
	if len(frames) != len(r.bounds)-1 {
		return fmt.Errorf("%w: %d boundary frames for %d partitions",
			ErrPartitionOptions, len(frames), len(r.bounds)-1)
	}
	for p, fr := range frames {
		if fr.Part != p {
			return fmt.Errorf("%w: boundary frame %d labelled partition %d", ErrPartitionOptions, p, fr.Part)
		}
		if p == r.part {
			continue
		}
		for _, bs := range fr.States {
			v := int(bs.V)
			if v < r.bounds[p] || v >= r.bounds[p+1] {
				return fmt.Errorf("%w: partition %d sent vertex %d outside its range [%d, %d)",
					ErrPartitionOptions, p, v, r.bounds[p], r.bounds[p+1])
			}
			inc := int(bs.Level) - st.level[v]
			if inc < 0 {
				return fmt.Errorf("%w: vertex %d level regressed %d -> %d",
					ErrPartitionOptions, v, st.level[v], bs.Level)
			}
			st.inc[v] = inc
			st.level[v] = int(bs.Level)
			st.joined[v] = bs.Joined
			st.raise[v] = bs.Raise
		}
	}
	return nil
}

// partial converts the final state into the partition's share: the cover
// and maximum level of the own range, and the duals of the owned edges
// ascending by edge id.
func (r *flatRun) partial(res *Result) *PartialResult {
	st := r.st
	g := st.g
	p := &PartialResult{
		Part:       r.part,
		Iterations: res.Iterations,
		Z:          res.Z,
		Alpha:      res.Alpha,
		Epsilon:    res.Epsilon,
	}
	size, owned := 0, 0
	for v := r.lo; v < r.hi; v++ {
		if st.inCover[v] {
			size++
		}
		for _, e := range g.Incident(hypergraph.VertexID(v)) {
			if int(g.Edge(e)[0]) == v {
				owned++
			}
		}
	}
	p.Cover = make([]hypergraph.VertexID, 0, size)
	for v := r.lo; v < r.hi; v++ {
		if st.inCover[v] {
			p.Cover = append(p.Cover, hypergraph.VertexID(v))
			p.CoverWeight += g.Weight(hypergraph.VertexID(v))
		}
		if st.level[v] > p.MaxLevel {
			p.MaxLevel = st.level[v]
		}
	}
	p.DualEdges = make([]int32, 0, owned)
	p.DualValues = make([]float64, 0, owned)
	for e := 0; e < g.NumEdges(); e++ {
		if v := int(g.Edge(hypergraph.EdgeID(e))[0]); v >= r.lo && v < r.hi {
			p.DualEdges = append(p.DualEdges, int32(e))
			p.DualValues = append(p.DualValues, st.delta[e])
		}
	}
	return p
}

// AssembleParts merges the partitions' shares into a Result equal, bit for
// bit, to Run on the undivided instance: every edge's dual is reported
// by exactly one owner, and finish derives the cover and the dual value
// from the merged vectors exactly as it does for every other engine. The
// partitions' reported cover weights must add up to the finished weight.
func AssembleParts(g *hypergraph.Hypergraph, opts Options, parts []*PartialResult) (*Result, error) {
	if err := opts.validate(g); err != nil {
		return nil, err
	}
	if len(parts) == 0 {
		return nil, fmt.Errorf("%w: no partial results", ErrPartitionOptions)
	}
	for i, p := range parts {
		if p == nil {
			return nil, fmt.Errorf("%w: missing partial result %d", ErrPartitionOptions, i)
		}
	}
	first := parts[0]
	res := &Result{
		InCover:    make([]bool, g.NumVertices()),
		Dual:       make([]float64, g.NumEdges()),
		Iterations: first.Iterations,
		Z:          first.Z,
		Alpha:      first.Alpha,
		Epsilon:    first.Epsilon,
	}
	seen := make([]bool, g.NumEdges())
	var reported int64
	for i, p := range parts {
		if p.Part != i {
			return nil, fmt.Errorf("%w: partial %d reports partition %d", ErrPartitionOptions, i, p.Part)
		}
		if p.Iterations != first.Iterations || p.Z != first.Z || p.Alpha != first.Alpha || p.Epsilon != first.Epsilon {
			return nil, fmt.Errorf("%w: partition %d ran diverging parameters", ErrPartitionOptions, i)
		}
		if len(p.DualEdges) != len(p.DualValues) {
			return nil, fmt.Errorf("%w: partition %d dual arrays disagree", ErrPartitionOptions, i)
		}
		for _, v := range p.Cover {
			if v < 0 || int(v) >= g.NumVertices() {
				return nil, fmt.Errorf("%w: cover vertex %d out of range", ErrPartitionOptions, v)
			}
			res.InCover[v] = true
		}
		reported += p.CoverWeight
		if p.MaxLevel > res.MaxLevel {
			res.MaxLevel = p.MaxLevel
		}
		for j, e := range p.DualEdges {
			if e < 0 || int(e) >= g.NumEdges() {
				return nil, fmt.Errorf("%w: dual edge %d out of range", ErrPartitionOptions, e)
			}
			if seen[e] {
				return nil, fmt.Errorf("%w: edge %d reported by two partitions", ErrPartitionOptions, e)
			}
			seen[e] = true
			res.Dual[e] = p.DualValues[j]
		}
	}
	for e, ok := range seen {
		if !ok {
			return nil, fmt.Errorf("%w: edge %d reported by no partition", ErrPartitionOptions, e)
		}
	}
	finish(g, res)
	if reported != res.CoverWeight {
		return nil, fmt.Errorf("%w: partitions report cover weight %d, cover weighs %d",
			ErrPartitionOptions, reported, res.CoverWeight)
	}
	res.Rounds = lockstepRounds(g.NumEdges(), res.Iterations)
	return res, nil
}
