package reduction

import (
	"fmt"
	"math"

	"distcover/internal/core"
	"distcover/internal/lp"
)

// PipelineResult is the outcome of the full Theorem 19 pipeline
// ILP → zero-one → MWHVC → Algorithm MWHVC → assignment.
type PipelineResult struct {
	// X is the integral solution; feasible for the input ILP.
	X []int64
	// Value is wᵀX.
	Value int64
	// Core is the MWHVC run on the reduced hypergraph.
	Core *core.Result
	// Stats reports the reduction blowup against the paper's bounds.
	Stats PipelineStats
}

// PipelineStats records the parameters before and after the reductions.
type PipelineStats struct {
	// Original ILP parameters.
	F     int   // f(A): max nonzeros per constraint
	Delta int   // Δ(A): max constraints per variable
	M     int64 // M(A,b) box bound
	// Expanded zero-one program parameters.
	ZOVars  int
	ZOF     int
	ZODelta int
	// Reduced hypergraph parameters (Claim 18 + Lemma 14 predict
	// f' ≤ f·(⌊log M⌋+1) and Δ' ≤ 2^{f'}·Δ).
	HgVertices int
	HgEdges    int
	HgRank     int
	HgDelta    int
	RawEdges   int // hyperedges before deduplication
	// SimulationFactor is the paper's (1 + f/log n) messaging overhead for
	// variable nodes simulating hyperedges (Claim 15); we account it
	// analytically rather than executing the packing trick.
	SimulationFactor float64
}

// SolveILP runs the composed reduction pipeline on a covering ILP and
// returns a feasible integral solution. The guarantee proved in the paper
// is (f+ε)·OPT; the bound certified per-run by weak duality is
// (rank'+ε)·Σδ with rank' the reduced hypergraph's rank (Result.Core
// carries the dual). Tests audit both against exact optima on small
// instances.
func SolveILP(p *lp.CoveringILP, coreOpts core.Options, redOpts Options) (*PipelineResult, error) {
	ilpRed, err := ToZeroOne(p, redOpts)
	if err != nil {
		return nil, fmt.Errorf("reduction: to zero-one: %w", err)
	}
	zoRed, err := ToHypergraph(ilpRed.ZO, redOpts)
	if err != nil {
		return nil, fmt.Errorf("reduction: to hypergraph: %w", err)
	}
	res, err := core.Run(zoRed.G, coreOpts, nil)
	if err != nil {
		return nil, fmt.Errorf("reduction: core run: %w", err)
	}
	bitsX := zoRed.CoverToAssignment(res.Cover)
	x := ilpRed.AssignmentFromBits(bitsX)
	if !p.IsFeasible(x) {
		// Cannot happen when the reductions are correct; fail loudly
		// rather than return a bogus solution.
		return nil, fmt.Errorf("reduction: mapped solution infeasible (pipeline bug)")
	}
	simFactor := 1.0
	if p.NumVars > 1 {
		simFactor = 1 + float64(p.RowF())/math.Log2(float64(p.NumVars))
	}
	return &PipelineResult{
		X:     x,
		Value: p.Value(x),
		Core:  res,
		Stats: PipelineStats{
			F:                p.RowF(),
			Delta:            p.ColDelta(),
			M:                p.M(),
			ZOVars:           ilpRed.ZO.NumVars,
			ZOF:              ilpRed.ZO.RowF(),
			ZODelta:          ilpRed.ZO.ColDelta(),
			HgVertices:       zoRed.G.NumVertices(),
			HgEdges:          zoRed.G.NumEdges(),
			HgRank:           zoRed.G.Rank(),
			HgDelta:          zoRed.G.MaxDegree(),
			RawEdges:         zoRed.RawEdges,
			SimulationFactor: simFactor,
		},
	}, nil
}
