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
	"context"
	"errors"
	"fmt"
	"io"

	"distcover/internal/cluster"
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

// Solve runs Algorithm MWHVC on the instance and returns the cover with
// its certificate and measured distributed complexity. The engine is the
// first the options select, in this order: cluster peers
// (WithClusterPeers, as ClusterSolve), in-process partitions
// (WithClusterPartitions: co-located partitions over a shared-memory
// exchanger), the chunk-parallel flat runner (WithFlatEngine: wall-clock
// scaling with cores), and by default the fast lockstep simulator. Results
// are bit-identical on every engine. Solve ignores the CONGEST engine
// options; SolveCongest runs the message protocol.
func Solve(in *Instance, opts ...Option) (*Solution, error) {
	if in == nil {
		return nil, ErrNilInstance
	}
	cfg := optConfig(opts)
	cfg.congest = false
	res, _, err := run(in.g, cfg, nil, 0)
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
// are identical on every engine. SolveCongest ignores WithFlatEngine and
// the cluster options, which select engines that run no messages.
func SolveCongest(in *Instance, opts ...Option) (*Solution, *CongestStats, error) {
	if in == nil {
		return nil, nil, ErrNilInstance
	}
	cfg := optConfig(opts)
	cfg.congest = true
	cfg.clusterPeers, cfg.clusterParts = nil, 0
	res, stats, err := run(in.g, cfg, nil, 0)
	if err != nil {
		return nil, nil, fmt.Errorf("distcover: %w", err)
	}
	return solutionFromResult(res), stats, nil
}

// run executes one solve of g on the first engine cfg selects, in this
// order: cluster peers, in-process partitions, a CONGEST engine, the flat
// runner, the lockstep simulator. A non-nil carry warm-starts a session's
// residual solve from the dual loads its vertices already carry. size is
// the n+m of the whole instance g belongs to (0 when g is the whole
// instance); it sizes the CONGEST engines' O(log n) bit budget, because
// messages carry weights of the whole instance. The CongestStats are nil
// unless a CONGEST engine ran. Errors are returned unwrapped: each entry
// point adds its own prefix.
func run(g *hypergraph.Hypergraph, cfg solveConfig, carry []float64, size int) (*core.Result, *CongestStats, error) {
	engine := "sim"
	switch {
	case len(cfg.clusterPeers) > 0:
		engine = "cluster"
	case cfg.clusterParts > 0:
		engine = "cluster-local"
	case cfg.congest:
		engine = cfg.congestEngineName()
	case cfg.flat:
		engine = "flat"
	}
	clustered := engine == "cluster" || engine == "cluster-local"
	if clustered && cfg.core.Exact {
		return nil, nil, fmt.Errorf("cluster: %w: exact arithmetic is not distributable", core.ErrPartitionOptions)
	}
	stop := cfg.startSpan(engine)
	defer stop()
	if clustered {
		// Partitions run concurrently, on peers or as goroutines, and share
		// nothing with a coordinator-side trace: the per-iteration phase
		// hooks assume a single runner, so they and trace collection stay
		// off. Invariant checks stay on in-process, where each partition
		// checks its own range.
		cfg.core.Tracer = nil
		cfg.core.CollectTrace = false
	}
	switch engine {
	case "cluster":
		ccfg := cluster.Config{
			Peers:      cfg.clusterPeers,
			Partitions: cfg.clusterParts,
			Logger:     cfg.logger,
			Tracer:     cfg.effectiveTracer(),
		}
		if cfg.recorder != nil {
			ccfg.TraceID = cfg.recorder.TraceID()
		}
		res, err := cluster.Solve(g, cfg.core, carry, ccfg)
		return res, nil, err
	case "cluster-local":
		res, err := core.RunPartitioned(context.Background(), g, cfg.core, carry, cfg.clusterParts)
		return res, nil, err
	case "flat":
		res, err := core.RunFlat(g, cfg.core, carry, cfg.parallelism)
		return res, nil, err
	case "sim":
		res, err := core.Run(g, cfg.core, carry)
		return res, nil, err
	}
	// What remains is a CONGEST engine running the message protocol.
	if size == 0 {
		size = g.NumVertices() + g.NumEdges()
	}
	copts := congest.Options{Validate: true, BitBudget: congest.LogBudget(size)}
	res, m, err := core.RunCongest(g, cfg.core, carry, cfg.buildEngine(), copts)
	if err != nil {
		return nil, nil, err
	}
	return res, &CongestStats{
		Rounds:         m.Rounds,
		Messages:       m.Messages,
		TotalBits:      m.TotalBits,
		MaxMessageBits: m.MaxMessageBits,
		WireBytes:      m.WireBytes,
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
