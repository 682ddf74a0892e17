package distcover

import (
	"errors"
	"fmt"
	"sync"

	"distcover/internal/core"
	"distcover/internal/hypergraph"
)

// Delta is a batch of online updates to a session's instance: Weights
// appends new vertices, Edges appends new hyperedges (which may reference
// both existing vertices and the ones added in the same batch). The JSON
// shape mirrors the instance codec — {"weights":[...],"edges":[[...]]} —
// so producers of instance files can emit deltas with the same tooling.
type Delta struct {
	Weights []int64 `json:"weights,omitempty"`
	Edges   [][]int `json:"edges,omitempty"`
}

// Empty reports whether the delta changes nothing.
func (d Delta) Empty() bool { return len(d.Weights) == 0 && len(d.Edges) == 0 }

// vertexEdges converts the delta's edges to the hypergraph id type. All
// edges share one backing buffer (two allocations total, not one per edge —
// this sits on the per-update hot path of every session).
func (d Delta) vertexEdges() [][]hypergraph.VertexID {
	out := make([][]hypergraph.VertexID, len(d.Edges))
	total := 0
	for _, e := range d.Edges {
		total += len(e)
	}
	buf := make([]hypergraph.VertexID, 0, total)
	for i, e := range d.Edges {
		start := len(buf)
		for _, v := range e {
			buf = append(buf, hypergraph.VertexID(v))
		}
		out[i] = buf[start:len(buf):len(buf)]
	}
	return out
}

// UpdateStats describes what one Session.Update did.
type UpdateStats struct {
	// NewVertices and NewEdges count the delta's additions.
	NewVertices, NewEdges int
	// CoveredOnArrival counts new edges already stabbed by the current
	// cover; they need no solving and carry zero dual.
	CoveredOnArrival int
	// ResidualEdges and ResidualVertices size the residual instance the
	// warm-started solve actually ran on.
	ResidualEdges, ResidualVertices int
	// Joined counts vertices that entered the cover, of total AddedWeight.
	Joined      int
	AddedWeight int64
	// Iterations and Rounds are the residual solve's distributed cost
	// (zero when nothing was uncovered).
	Iterations, Rounds int
}

// ErrSessionClosed is returned by operations on a closed session.
var ErrSessionClosed = errors.New("distcover: session closed")

// Session holds a solved instance together with its live primal/dual state
// and accepts incremental delta batches. Instead of re-solving from
// scratch, Update runs the level algorithm only on the residual instance —
// the uncovered new edges and their incident vertices — warm-started with
// the dual load each vertex already carries. The algorithm's monotonicity
// makes this sound: the cover only grows, the accumulated duals remain a
// feasible packing, and after any number of batches
//
//	Weight ≤ f·(1+ε) · DualLowerBound ≤ f·(1+ε) · OPT
//
// where f is the current rank (CertifiedBound reports the factor). The
// clean per-solve (f+ε) guarantee relaxes to f(1+ε) only because vertices
// that joined under an earlier, smaller rank paid the earlier threshold.
//
// The default execution path is the frontier runner on one worker (like
// Solve); WithSolverParallelism gives the initial solve and every residual
// re-solve more workers (bit-identical results, wall-clock scaling with
// cores). Give a CONGEST engine option — WithSequentialEngine,
// WithShardedEngine, WithTCPEngine — to run both as the real message
// protocol on that engine; the residual network contains only the dirty
// vertices and edges, so on the sharded engine only the shards that
// received new work step at all.
//
// Sessions are safe for concurrent use; updates serialize internally.
type Session struct {
	mu  sync.Mutex
	cfg solveConfig
	g   *hypergraph.Hypergraph

	inCover     []bool
	coverWeight int64
	load        []float64 // per-vertex Σ_{e∋v} δ(e) across all solves
	dual        []float64 // per-edge δ(e); 0 for edges covered on arrival
	dualValue   float64
	epsilon     float64 // effective ε of the latest solve (FApprox resolves it)

	updates    int
	iterations int
	rounds     int
	maxLevel   int
	congest    *CongestStats // cumulative; nil unless a CONGEST engine runs

	remap  []int // scratch: full vertex id -> residual id, -1 when unmapped
	closed bool
}

// NewSession solves the instance and returns a session holding its state,
// ready for Update batches.
func NewSession(inst *Instance, opts ...Option) (*Session, error) {
	if inst == nil {
		return nil, ErrNilInstance
	}
	cfg := optConfig(opts)
	res, stats, err := run(inst.g, cfg, nil, 0)
	if err != nil {
		return nil, fmt.Errorf("distcover: session: %w", err)
	}
	s := &Session{cfg: cfg, g: inst.g}
	s.addCongest(stats)
	n, m := s.g.NumVertices(), s.g.NumEdges()
	s.inCover = append([]bool(nil), res.InCover...)
	s.coverWeight = res.CoverWeight
	s.load = make([]float64, n)
	s.dual = append([]float64(nil), res.Dual...)
	s.dualValue = res.DualValue
	for e := 0; e < m; e++ {
		for _, v := range s.g.Edge(hypergraph.EdgeID(e)) {
			s.load[v] += res.Dual[e]
		}
	}
	s.epsilon = res.Epsilon
	s.iterations = res.Iterations
	s.rounds = res.Rounds
	s.maxLevel = res.MaxLevel
	s.remap = make([]int, n)
	for i := range s.remap {
		s.remap[i] = -1
	}
	return s, nil
}

// Update applies one delta batch: the instance is extended (with its
// canonical edge encoding maintained incrementally), new edges already
// stabbed by the cover are absorbed for free, and the rest are solved as a
// warm-started residual instance whose result is merged into the session
// state. The cover, dual value and certificate only ever grow.
func (s *Session) Update(d Delta) (*UpdateStats, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrSessionClosed
	}
	newG, err := s.g.Extend(d.Weights, d.vertexEdges())
	if err != nil {
		return nil, fmt.Errorf("distcover: session update: %w", err)
	}
	stats := &UpdateStats{NewVertices: len(d.Weights), NewEdges: len(d.Edges)}
	n0, m0 := s.g.NumVertices(), s.g.NumEdges()

	// Partition the new edges into covered-on-arrival and residual.
	var resEdges []int // full edge ids
	for e := m0; e < newG.NumEdges(); e++ {
		stabbed := false
		for _, v := range newG.Edge(hypergraph.EdgeID(e)) {
			if int(v) < n0 && s.inCover[v] {
				stabbed = true
				break
			}
		}
		if stabbed {
			stats.CoveredOnArrival++
		} else {
			resEdges = append(resEdges, e)
		}
	}

	var res *core.Result
	var congestStats *CongestStats
	var orig []int // residual id -> full vertex id
	var rg *hypergraph.Hypergraph
	if len(resEdges) > 0 {
		// Compact the residual vertices with the reusable remap scratch.
		for len(s.remap) < newG.NumVertices() {
			s.remap = append(s.remap, -1)
		}
		for _, e := range resEdges {
			for _, v := range newG.Edge(hypergraph.EdgeID(e)) {
				if s.remap[v] < 0 {
					s.remap[v] = len(orig)
					orig = append(orig, int(v))
				}
			}
		}
		b := hypergraph.NewBuilder(len(orig), len(resEdges))
		for _, v := range orig {
			b.AddVertex(newG.Weight(hypergraph.VertexID(v)))
		}
		local := make([]hypergraph.VertexID, 0, newG.Rank())
		for _, e := range resEdges {
			local = local[:0]
			for _, v := range newG.Edge(hypergraph.EdgeID(e)) {
				local = append(local, hypergraph.VertexID(s.remap[v]))
			}
			b.AddEdge(local...)
		}
		for _, v := range orig {
			s.remap[v] = -1 // reset scratch for the next update
		}
		rg, err = b.Build()
		if err == nil {
			carry := make([]float64, len(orig))
			for i, v := range orig {
				if v < n0 {
					carry[i] = s.load[v]
				}
			}
			// The residual instance plus carried loads is exactly the
			// compact session delta cluster peers receive; the full base
			// instance never re-crosses the wire. A CONGEST engine sizes its
			// bit budget from the full instance.
			res, congestStats, err = run(rg, s.cfg, carry, newG.NumVertices()+newG.NumEdges())
		}
		if err != nil {
			return nil, fmt.Errorf("distcover: session update: %w", err)
		}
	}

	// Commit: instance, grown state vectors, merged residual result.
	s.g = newG
	for i := 0; i < stats.NewVertices; i++ {
		s.inCover = append(s.inCover, false)
		s.load = append(s.load, 0)
	}
	for i := 0; i < stats.NewEdges; i++ {
		s.dual = append(s.dual, 0)
	}
	if res != nil {
		stats.ResidualEdges = len(resEdges)
		stats.ResidualVertices = len(orig)
		for lv, ov := range orig {
			if res.InCover[lv] {
				s.inCover[ov] = true
				w := newG.Weight(hypergraph.VertexID(ov))
				s.coverWeight += w
				stats.Joined++
				stats.AddedWeight += w
			}
		}
		for le, fe := range resEdges {
			delta := res.Dual[le]
			s.dual[fe] = delta
			s.dualValue += delta
			for _, lv := range rg.Edge(hypergraph.EdgeID(le)) {
				s.load[orig[lv]] += delta
			}
		}
		s.epsilon = res.Epsilon
		s.iterations += res.Iterations
		s.rounds += res.Rounds
		if res.MaxLevel > s.maxLevel {
			s.maxLevel = res.MaxLevel
		}
		stats.Iterations = res.Iterations
		stats.Rounds = res.Rounds
	}
	s.addCongest(congestStats)
	s.updates++
	return stats, nil
}

// SessionState is a consistent point-in-time snapshot of a session, taken
// atomically with respect to concurrent updates: the Solution is guaranteed
// to cover exactly the instance identified by Hash and described by Stats.
type SessionState struct {
	Solution       *Solution
	Hash           string
	Stats          Stats
	Updates        int
	CertifiedBound float64
	Congest        *CongestStats // nil unless a CONGEST engine runs
}

// State returns a consistent snapshot under one lock acquisition. Callers
// that read several aspects of a live session (the coverd session handlers)
// must use it instead of combining the individual accessors, whose separate
// lock acquisitions can interleave with an update.
func (s *Session) State() SessionState {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := SessionState{
		Solution: s.solutionLocked(),
		Hash:     s.g.Hash(),
		Stats: Stats{
			Vertices:     s.g.NumVertices(),
			Edges:        s.g.NumEdges(),
			Rank:         s.g.Rank(),
			MaxDegree:    s.g.MaxDegree(),
			WeightSpread: s.g.WeightSpread(),
		},
		Updates:        s.updates,
		CertifiedBound: s.certifiedBoundLocked(),
	}
	if s.congest != nil {
		cp := *s.congest
		st.Congest = &cp
	}
	return st
}

// Solution returns the current cumulative solution: the cover over the full
// instance as updated so far, the total dual lower bound, and the realized
// certificate RatioBound = Weight / DualLowerBound (≤ CertifiedBound).
// Iterations and Rounds accumulate across the initial solve and all
// residual solves.
func (s *Session) Solution() *Solution {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.solutionLocked()
}

func (s *Session) solutionLocked() *Solution {
	sol := &Solution{
		Weight:         s.coverWeight,
		DualLowerBound: s.dualValue,
		Epsilon:        s.epsilon,
		Iterations:     s.iterations,
		Rounds:         s.rounds,
		MaxLevel:       s.maxLevel,
		LevelCap:       core.ZLevels(s.g.Rank(), s.epsilonOrDefault()),
	}
	// Count, then fill: the cover is built with one allocation.
	size := 0
	for _, in := range s.inCover {
		if in {
			size++
		}
	}
	if size > 0 {
		sol.Cover = make([]int, 0, size)
		for v, in := range s.inCover {
			if in {
				sol.Cover = append(sol.Cover, v)
			}
		}
	}
	sol.RatioBound = core.RatioBound(s.coverWeight, s.dualValue)
	return sol
}

// CertifiedBound returns the approximation factor the session's certificate
// guarantees for its current state: f·(1+ε) with f the current rank. Every
// Solution().RatioBound the session ever reports stays at or below it.
func (s *Session) CertifiedBound() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.certifiedBoundLocked()
}

func (s *Session) certifiedBoundLocked() float64 {
	f := s.g.Rank()
	if f < 1 {
		f = 1
	}
	return float64(f) * (1 + s.epsilonOrDefault())
}

func (s *Session) epsilonOrDefault() float64 {
	if s.epsilon > 0 {
		return s.epsilon
	}
	return 1
}

// Instance returns the current full instance (base plus all applied
// deltas). The returned value shares the session's immutable hypergraph.
func (s *Session) Instance() *Instance {
	s.mu.Lock()
	defer s.mu.Unlock()
	return &Instance{g: s.g}
}

// Hash returns the canonical content hash of the current instance. It
// always equals the hash a from-scratch build of the same instance would
// produce; each update keeps the hashed encoding up to date, so computing
// it is one SHA-256 pass.
func (s *Session) Hash() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.g.Hash()
}

// MemoryBytes estimates the session's heap footprint: the CSR arrays of
// the current instance plus the per-vertex and per-edge state vectors the
// session carries between updates. The coverd session registry uses this
// estimate for byte-budgeted eviction, so mixed instance sizes are bounded
// by actual memory rather than a session count.
func (s *Session) MemoryBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	// inCover is 1 byte per vertex; load, dual and remap are 8.
	state := int64(len(s.inCover)) + 8*int64(len(s.load)+len(s.dual)+len(s.remap))
	return s.g.MemoryBytes() + state
}

// SetClusterPeers repoints a cluster session (one opened with
// WithClusterPeers) at a new set of peer processes, keeping the accumulated
// primal/dual state. This is the recovery path after ErrPeerLost: a failed
// Update commits nothing, so once the lost peer is restarted — or replaced
// by a different address — the same delta can be retried here. Calling it
// on a non-cluster session turns the session's residual re-solves into
// cluster solves from the next Update on.
func (s *Session) SetClusterPeers(addrs ...string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cfg.clusterPeers = append([]string(nil), addrs...)
}

// Updates returns the number of applied delta batches.
func (s *Session) Updates() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.updates
}

// Congest returns the cumulative communication metrics when the session
// runs on a CONGEST engine, nil otherwise.
func (s *Session) Congest() *CongestStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.congest == nil {
		return nil
	}
	cp := *s.congest
	return &cp
}

// Close marks the session closed; subsequent updates fail. It exists so
// pools of sessions (the coverd registry) can invalidate evicted entries.
func (s *Session) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
}

// addCongest accumulates one solve's CONGEST metrics; nil (no CONGEST
// engine ran) adds nothing.
func (s *Session) addCongest(c *CongestStats) {
	if c == nil {
		return
	}
	if s.congest == nil {
		s.congest = &CongestStats{}
	}
	s.congest.Rounds += c.Rounds
	s.congest.Messages += c.Messages
	s.congest.TotalBits += c.TotalBits
	if c.MaxMessageBits > s.congest.MaxMessageBits {
		s.congest.MaxMessageBits = c.MaxMessageBits
	}
	s.congest.WireBytes += c.WireBytes
}

// Extend returns a new instance equal to in plus the delta, validating it
// the same way NewInstance does. Sessions maintain their instance this way
// internally; the standalone helper exists for callers (and tests) that
// need the same-instance equivalence, e.g. to compare an incrementally
// built session against a from-scratch solve.
func (in *Instance) Extend(d Delta) (*Instance, error) {
	g, err := in.g.Extend(d.Weights, d.vertexEdges())
	if err != nil {
		return nil, fmt.Errorf("distcover: %w", err)
	}
	return &Instance{g: g}, nil
}
