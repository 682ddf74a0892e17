// Package distcover is a Go implementation of the time-optimal distributed
// covering algorithms of Ben-Basat, Even, Kawarabayashi and Schwartzman,
// "Optimal Distributed Covering Algorithms" (PODC 2019).
//
// The library computes (f+ε)-approximate minimum weight vertex covers in
// hypergraphs of rank f — equivalently, weighted set covers with element
// frequency at most f — with a deterministic distributed algorithm for the
// CONGEST model whose round complexity O(logΔ/loglogΔ) for constant f and
// ε is optimal and independent of both the vertex weights and the number
// of vertices. General covering integer programs are solved through the
// paper's reductions (Section 5).
//
// # Quick start
//
//	inst, err := distcover.NewInstance(
//		[]int64{3, 1, 4},                    // vertex weights
//		[][]int{{0, 1}, {1, 2}, {0, 2}},     // hyperedges
//	)
//	if err != nil { ... }
//	sol, err := distcover.Solve(inst, distcover.WithEpsilon(0.5))
//	if err != nil { ... }
//	fmt.Println(sol.Cover, sol.Weight, sol.RatioBound)
//
// Solve runs a fast in-process simulation. SolveCongest executes the real
// message protocol on a simulated CONGEST network (node shards on a worker
// pool if you pick the sharded engine) and reports rounds, message counts
// and message sizes.
//
// The returned Solution always carries a per-run certificate: a feasible
// dual packing whose value lower-bounds the optimum, so
// Weight ≤ RatioBound × OPT holds unconditionally with
// RatioBound ≤ f+ε (Corollary 3 of the paper).
package distcover

import (
	"errors"
	"fmt"
	"io"

	"distcover/internal/congest"
	"distcover/internal/core"
	"distcover/internal/hypergraph"
)

// Instance is a weighted hypergraph vertex cover (= bounded-frequency set
// cover) instance. Create one with NewInstance, NewSetCoverInstance or
// ReadInstance.
type Instance struct {
	g *hypergraph.Hypergraph
}

// NewInstance builds an instance from vertex weights and hyperedges. Every
// edge must be non-empty and reference valid vertices; weights must be
// positive. Edge vertex lists are deduplicated.
func NewInstance(weights []int64, edges [][]int) (*Instance, error) {
	b := hypergraph.NewBuilder(len(weights), len(edges))
	for _, w := range weights {
		b.AddVertex(w)
	}
	for _, edge := range edges {
		vs := make([]hypergraph.VertexID, len(edge))
		for i, v := range edge {
			vs[i] = hypergraph.VertexID(v)
		}
		b.AddEdge(vs...)
	}
	g, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("distcover: %w", err)
	}
	return &Instance{g: g}, nil
}

// NewSetCoverInstance builds an instance from a weighted set cover problem:
// sets[i] lists the elements (0..numElements-1) that set i covers, costs[i]
// its cost. Element frequency becomes the hypergraph rank f. Solving the
// instance returns the chosen set indices as the cover.
func NewSetCoverInstance(numElements int, sets [][]int, costs []int64) (*Instance, error) {
	g, err := hypergraph.SetCoverInstance(numElements, sets, costs)
	if err != nil {
		return nil, fmt.Errorf("distcover: %w", err)
	}
	return &Instance{g: g}, nil
}

// ReadInstance parses the JSON form {"weights":[...],"edges":[[...]]}.
func ReadInstance(r io.Reader) (*Instance, error) {
	g, err := hypergraph.ReadFrom(r)
	if err != nil {
		return nil, fmt.Errorf("distcover: %w", err)
	}
	return &Instance{g: g}, nil
}

// WriteTo serializes the instance as JSON.
func (in *Instance) WriteTo(w io.Writer) (int64, error) { return in.g.WriteTo(w) }

// Hash returns a canonical content hash of the instance (hex SHA-256 over a
// normalized encoding of weights and edges). Instances describing the same
// mathematical problem — regardless of edge order, vertex order within an
// edge, or serialization formatting — hash identically, so the hash is a
// sound key for caching solver results.
func (in *Instance) Hash() string { return in.g.Hash() }

// Stats summarizes the structural parameters of an instance.
type Stats struct {
	Vertices     int
	Edges        int
	Rank         int   // f: maximum edge size / element frequency
	MaxDegree    int   // Δ: maximum vertex degree
	WeightSpread int64 // W: max weight / min weight
}

// Stats returns the instance parameters the round bounds depend on.
func (in *Instance) Stats() Stats {
	return Stats{
		Vertices:     in.g.NumVertices(),
		Edges:        in.g.NumEdges(),
		Rank:         in.g.Rank(),
		MaxDegree:    in.g.MaxDegree(),
		WeightSpread: in.g.WeightSpread(),
	}
}

// IsCover reports whether the given vertex set stabs every edge.
func (in *Instance) IsCover(cover []int) bool {
	vs := make([]hypergraph.VertexID, len(cover))
	for i, v := range cover {
		vs[i] = hypergraph.VertexID(v)
	}
	return in.g.IsCover(vs)
}

// CoverWeight returns the total weight of the given vertex set.
func (in *Instance) CoverWeight(cover []int) int64 {
	vs := make([]hypergraph.VertexID, len(cover))
	for i, v := range cover {
		vs[i] = hypergraph.VertexID(v)
	}
	return in.g.CoverWeight(vs)
}

// Solution is the output of Solve and SolveCongest.
type Solution struct {
	// Cover lists the chosen vertices (set indices for set cover
	// instances), ascending.
	Cover []int
	// Weight is the total cover weight.
	Weight int64
	// DualLowerBound is the value of the feasible dual packing the
	// algorithm produces; no cover can weigh less.
	DualLowerBound float64
	// RatioBound = Weight / DualLowerBound certifies the realized
	// approximation factor for this run (≤ f+ε).
	RatioBound float64
	// Epsilon is the effective ε (resolved when WithFApproximation is on).
	Epsilon float64
	// Iterations and Rounds measure the distributed complexity: Rounds is
	// the CONGEST round count (2 per iteration plus initialization).
	Iterations int
	Rounds     int
	// MaxLevel and LevelCap expose the level mechanism (ℓ(v) < z).
	MaxLevel int
	LevelCap int
	// Alpha is the bid multiplier chosen by Theorem 9 (0 with
	// WithLocalAlpha, where each edge picks its own).
	Alpha float64
	// Trace holds per-iteration statistics when WithTrace is set.
	Trace []IterationTrace
}

// IterationTrace records one iteration of a traced run.
type IterationTrace struct {
	// Iteration is the 1-based iteration index.
	Iteration int
	// Joined counts vertices that became β-tight and entered the cover.
	Joined int
	// CoveredEdges counts edges newly covered.
	CoveredEdges int
	// LevelIncrements is the total number of vertex level increments.
	LevelIncrements int
	// RaisedEdges counts edges that multiplied their bid by α.
	RaisedEdges int
	// StuckVertices counts vertices that reported "stuck".
	StuckVertices int
	// ActiveVertices and ActiveEdges count nodes still running afterwards.
	ActiveVertices int
	ActiveEdges    int
}

// CongestStats reports the communication cost measured by SolveCongest.
type CongestStats struct {
	// Rounds is the number of synchronous rounds to global termination.
	Rounds int
	// Messages is the total number of messages delivered.
	Messages int64
	// TotalBits is the sum of message sizes.
	TotalBits int64
	// MaxMessageBits is the largest message observed; the engine enforces
	// the O(log n) CONGEST budget, so this never exceeds it.
	MaxMessageBits int
	// WireBytes is the real TCP traffic when WithTCPEngine is used
	// (0 for the in-memory engines).
	WireBytes int64
}

// ErrNilInstance is returned when a nil instance is solved.
var ErrNilInstance = errors.New("distcover: nil instance")

// Solve runs Algorithm MWHVC on the instance with the fast lockstep
// simulator and returns the cover with its certificate and measured
// distributed complexity. With WithFlatEngine the lockstep iterations run
// chunk-parallel over the instance's CSR arrays instead — bit-identical
// results, wall-clock scaling with cores. With WithClusterPartitions (and
// no peers) the solve runs the in-process partitioned engine: co-located
// partitions over a shared-memory exchanger, again bit-identical.
func Solve(in *Instance, opts ...Option) (*Solution, error) {
	if in == nil {
		return nil, ErrNilInstance
	}
	cfg := optConfig(opts)
	if len(cfg.clusterPeers) == 0 && cfg.clusterParts > 0 {
		res, err := clusterRunLocal(in.g, cfg, nil)
		if err != nil {
			return nil, err
		}
		return solutionFromResult(res), nil
	}
	engine := "sim"
	if cfg.flat {
		engine = "flat"
	}
	stop := cfg.startSpan(engine)
	var (
		res *core.Result
		err error
	)
	if cfg.flat {
		res, err = core.RunFlat(in.g, cfg.core, cfg.parallelism)
	} else {
		res, err = core.Run(in.g, cfg.core)
	}
	stop()
	if err != nil {
		return nil, fmt.Errorf("distcover: %w", err)
	}
	return solutionFromResult(res), nil
}

// SolveCongest runs the actual Appendix B message protocol on a simulated
// CONGEST network and returns the solution together with communication
// metrics. The default engine steps the nodes sequentially; with
// WithShardedEngine node shards step on a worker pool, and with
// WithTCPEngine the messages cross loopback sockets. Results and metrics
// are identical on every engine.
func SolveCongest(in *Instance, opts ...Option) (*Solution, *CongestStats, error) {
	if in == nil {
		return nil, nil, ErrNilInstance
	}
	ecfg := optConfig(opts)
	stop := ecfg.startSpan(ecfg.congestEngineName())
	cfg := ecfg.core
	res, metrics, err := core.RunCongest(in.g, cfg, ecfg.buildEngine(), congest.Options{Validate: true})
	stop()
	if err != nil {
		return nil, nil, fmt.Errorf("distcover: %w", err)
	}
	return solutionFromResult(res), &CongestStats{
		Rounds:         metrics.Rounds,
		Messages:       metrics.Messages,
		TotalBits:      metrics.TotalBits,
		MaxMessageBits: metrics.MaxMessageBits,
		WireBytes:      metrics.WireBytes,
	}, nil
}

func solutionFromResult(res *core.Result) *Solution {
	sol := &Solution{
		Cover:          make([]int, len(res.Cover)),
		Weight:         res.CoverWeight,
		DualLowerBound: res.DualValue,
		RatioBound:     res.RatioBound,
		Epsilon:        res.Epsilon,
		Iterations:     res.Iterations,
		Rounds:         res.Rounds,
		MaxLevel:       res.MaxLevel,
		LevelCap:       res.Z,
		Alpha:          res.Alpha,
	}
	for i, v := range res.Cover {
		sol.Cover[i] = int(v)
	}
	for _, it := range res.Trace {
		sol.Trace = append(sol.Trace, IterationTrace{
			Iteration:       it.Iteration,
			Joined:          it.Joined,
			CoveredEdges:    it.CoveredEdges,
			LevelIncrements: it.LevelIncrements,
			RaisedEdges:     it.RaisedEdges,
			StuckVertices:   it.StuckVertices,
			ActiveVertices:  it.ActiveVertices,
			ActiveEdges:     it.ActiveEdges,
		})
	}
	return sol
}
