// Package core implements Algorithm MWHVC from Ben-Basat, Even,
// Kawarabayashi and Schwartzman, "Optimal Distributed Covering Algorithms"
// (PODC 2019): a deterministic distributed (f+ε)-approximation for Minimum
// Weight Hypergraph Vertex Cover in the CONGEST model whose round complexity
// is independent of the vertex weights and the number of vertices.
//
// The algorithm is primal-dual. Every hyperedge e carries a dual variable
// δ(e), increased in every iteration by an increment bid(e). A vertex whose
// incident duals reach a (1-β) fraction of its weight (β = ε/(f+ε)) is
// β-tight and joins the cover. Vertices track a level
// ℓ(v) = ⌊log w(v)/(w(v) - Σ_{e∋v} δ(e))⌋ — the logarithm of the uncovered
// fraction — and every level increment halves the bids of incident edges.
// An edge whose vertices all report "raise" multiplies its bid by α ≥ 2;
// a vertex reports raise when its pending bids are at most a 1/α fraction
// of its remaining slack at the current level. Theorem 8 bounds iterations
// by O(log_α Δ + f·log(f/ε)·α); Theorem 9's choice of α makes this
// O(logΔ/loglogΔ) for constant f and ε, matching the lower bound of Kuhn,
// Moscibroda and Wattenhofer.
//
// Three execution paths share one semantics. Each takes a carry: the
// per-vertex dual loads a session's residual solve warm-starts from, nil
// for a cold start (residual.go).
//
//   - Run executes the generic lockstep runner directly over the
//     hypergraph: float64 by default, exact big.Rat arithmetic on request;
//     it is also the tests' reference.
//   - RunFlat, RunPartition and RunPartitioned execute the frontier runner
//     (flat.go) over an owned vertex range: the whole instance on a
//     chunk-parallel worker pool, or one contiguous partition that
//     exchanges boundary states and coverage counts with its peers through
//     an Exchanger (partition.go, exchanger.go).
//   - RunCongest builds the bipartite vertex/edge CONGEST network of
//     Section 2 and executes the message protocol of Appendix B with
//     O(log n)-bit messages on a congest.Engine.
//
// Every path ends in finish, the one place that derives the cover, its
// weight, the dual value and the RatioBound certificate from the run's
// indicator vector and duals.
//
// Tests verify that all paths produce identical covers, duals and
// iteration counts, that the invariants of Claims 1, 2 and 4 hold, and that
// the cover weight never exceeds (f+ε) times the dual lower bound
// (Corollary 3).
package core

import (
	"errors"
	"fmt"
	"math"

	"distcover/internal/hypergraph"
	"distcover/internal/telemetry"
)

// Variant selects which version of the algorithm runs.
type Variant int

// Algorithm variants.
const (
	// VariantDefault is Algorithm MWHVC as in Section 3.2: δ(e) += bid(e).
	VariantDefault Variant = iota + 1
	// VariantSingleLevel is the Appendix C modification: δ(e) += bid(e)/2,
	// guaranteeing each vertex's level increases at most once per iteration
	// (Corollary 21) at the cost of at most doubling the number of stuck
	// iterations (Lemma 22).
	VariantSingleLevel
)

func (v Variant) String() string {
	switch v {
	case VariantDefault:
		return "default"
	case VariantSingleLevel:
		return "single-level"
	default:
		return fmt.Sprintf("Variant(%d)", int(v))
	}
}

// AlphaPolicy selects how the bid multiplier α is chosen.
type AlphaPolicy int

// Alpha policies.
const (
	// AlphaTheorem9 sets a global α from Δ, f and ε as in Theorem 9.
	AlphaTheorem9 AlphaPolicy = iota + 1
	// AlphaLocal sets α(e) per edge from the local maximum degree
	// Δ(e) = max_{v∈e} |E(v)| (remark before Theorem 9). A vertex uses
	// max_{e∈E'(v)} α(e) in its raise/stuck test, which keeps the
	// feasibility invariant of Claim 1.
	AlphaLocal
	// AlphaFixed uses Options.FixedAlpha for every edge (ablation runs).
	AlphaFixed
)

func (p AlphaPolicy) String() string {
	switch p {
	case AlphaTheorem9:
		return "theorem9"
	case AlphaLocal:
		return "local"
	case AlphaFixed:
		return "fixed"
	default:
		return fmt.Sprintf("AlphaPolicy(%d)", int(p))
	}
}

// Options configures a run. The zero value is invalid; start from
// DefaultOptions.
type Options struct {
	// Epsilon is the approximation slack ε ∈ (0, 1]: the returned cover
	// weighs at most (f+ε)·OPT. Ignored when FApprox is set.
	Epsilon float64
	// FApprox sets ε = 1/(n·W) so the guarantee becomes a clean
	// f-approximation in O(f·log n) rounds (Corollary 10).
	FApprox bool
	// Variant selects the Section 3.2 or Appendix C algorithm.
	Variant Variant
	// Alpha selects the α policy.
	Alpha AlphaPolicy
	// FixedAlpha is the α used by AlphaFixed; must be ≥ 2.
	FixedAlpha float64
	// Gamma is Theorem 9's constant γ > 0 (default 0.001).
	Gamma float64
	// Exact switches the arithmetic to exact big.Rat rationals. In exact
	// mode α is rounded up to an integer so all quantities stay small
	// rationals; all claims require only α ≥ 2 and are unaffected.
	Exact bool
	// MaxIterations aborts runs that exceed it; ≤ 0 derives a generous
	// bound from Theorem 8.
	MaxIterations int
	// CollectTrace records per-iteration statistics in Result.Trace.
	CollectTrace bool
	// CheckInvariants verifies Claims 1, 2 and 4 after every iteration and
	// aborts with ErrInvariantViolated on failure. Costs O(n+m) per
	// iteration; meant for tests and debugging.
	CheckInvariants bool
	// Tracer receives phase-timing hooks from the runners when non-nil.
	// The nil default is strictly zero-overhead: the hot loops only ever
	// test the field, so the exactly-gated allocation counts are
	// unaffected.
	Tracer telemetry.Tracer
}

// DefaultOptions returns the configuration used throughout the paper's
// headline results: ε = 1, default variant, Theorem 9's α with γ = 0.001.
func DefaultOptions() Options {
	return Options{
		Epsilon: 1,
		Variant: VariantDefault,
		Alpha:   AlphaTheorem9,
		Gamma:   0.001,
	}
}

// Errors returned by runs.
var (
	// ErrBadOptions indicates invalid configuration.
	ErrBadOptions = errors.New("core: invalid options")
	// ErrIterationLimit indicates the run exceeded MaxIterations; this
	// signals a bug (Theorem 8 bounds iterations for valid inputs).
	ErrIterationLimit = errors.New("core: iteration limit exceeded")
)

// IterationStats records one iteration of a traced run.
type IterationStats struct {
	// Iteration is the 1-based iteration index.
	Iteration int
	// Joined is the number of vertices that became β-tight and joined C.
	Joined int
	// CoveredEdges is the number of edges newly covered.
	CoveredEdges int
	// LevelIncrements is the total number of level increments.
	LevelIncrements int
	// MaxLevelIncrement is the largest per-vertex increment (≤ 1 for
	// VariantSingleLevel by Corollary 21).
	MaxLevelIncrement int
	// RaisedEdges is the number of edges that multiplied their bid by α.
	RaisedEdges int
	// StuckVertices is the number of active vertices that reported stuck.
	StuckVertices int
	// ActiveVertices / ActiveEdges count nodes still running after the
	// iteration.
	ActiveVertices int
	ActiveEdges    int
}

// Result is the outcome of a run.
type Result struct {
	// Cover is the computed vertex cover, sorted by vertex id.
	Cover []hypergraph.VertexID
	// InCover is the indicator vector of Cover.
	InCover []bool
	// CoverWeight is w(Cover).
	CoverWeight int64
	// Dual holds the final dual variables δ(e); a feasible edge packing
	// whose value lower-bounds the optimal fractional cover.
	Dual []float64
	// DualValue is Σ_e δ(e).
	DualValue float64
	// RatioBound is CoverWeight / DualValue, an upper bound on the realized
	// approximation ratio (≤ f+ε by Corollary 3; often far smaller).
	RatioBound float64
	// Iterations is the number of executed iterations i ≥ 1.
	Iterations int
	// Rounds is the CONGEST round count: 2 rounds for iteration 0 plus 2
	// per iteration (Appendix B mapping). For RunCongest it is the engine's
	// measured count.
	Rounds int
	// MaxLevel is the largest vertex level reached (< Z by Claim 4).
	MaxLevel int
	// Z is the level cap z = ⌈log2(1/β)⌉.
	Z int
	// Alpha is the global α used (0 when AlphaLocal is in effect).
	Alpha float64
	// Epsilon is the effective ε (after FApprox substitution).
	Epsilon float64
	// Trace holds per-iteration stats when Options.CollectTrace is set.
	Trace []IterationStats
	// EdgeRaises counts, per edge, the iterations in which its bid was
	// multiplied by α (Lemma 6 bounds this by log_α(Δ·2^{f·z})). Collected
	// when Options.CollectTrace is set.
	EdgeRaises []int
	// MaxStuckPerLevel records, per vertex, the largest number of stuck
	// iterations it spent at any one level (Lemma 7 bounds this by α, or 2α
	// for the Appendix C variant per Lemma 22). Collected when
	// Options.CollectTrace is set.
	MaxStuckPerLevel []int
}

// validate checks opts against g and resolves derived parameters.
func (o *Options) validate(g *hypergraph.Hypergraph) error {
	if o.FApprox {
		nW := float64(g.NumVertices()) * float64(g.MaxWeight())
		if nW < 1 {
			nW = 1
		}
		o.Epsilon = 1 / nW
	}
	if o.Epsilon <= 0 || (!o.FApprox && o.Epsilon > 1) {
		return fmt.Errorf("%w: epsilon %g not in (0,1]", ErrBadOptions, o.Epsilon)
	}
	switch o.Variant {
	case VariantDefault, VariantSingleLevel:
	default:
		return fmt.Errorf("%w: unknown variant %d", ErrBadOptions, int(o.Variant))
	}
	switch o.Alpha {
	case AlphaTheorem9, AlphaLocal:
	case AlphaFixed:
		if o.FixedAlpha < 2 {
			return fmt.Errorf("%w: fixed alpha %g < 2", ErrBadOptions, o.FixedAlpha)
		}
	default:
		return fmt.Errorf("%w: unknown alpha policy %d", ErrBadOptions, int(o.Alpha))
	}
	if o.Gamma <= 0 {
		o.Gamma = 0.001
	}
	return nil
}

// Beta returns β = ε/(f+ε) for rank f.
func Beta(f int, eps float64) float64 {
	if f < 1 {
		f = 1
	}
	return eps / (float64(f) + eps)
}

// ZLevels returns z = ⌈log2(1/β)⌉, the cap no vertex level ever reaches
// (Claim 4).
func ZLevels(f int, eps float64) int {
	beta := Beta(f, eps)
	z := int(math.Ceil(math.Log2(1 / beta)))
	if z < 1 {
		z = 1
	}
	return z
}

// AlphaTheorem9Value computes α per Theorem 9:
//
//	α = max(2, logΔ/(f·log(f/ε)·loglogΔ))  if that ratio ≥ (logΔ)^{γ/2}
//	α = 2                                   otherwise.
func AlphaTheorem9Value(f int, eps float64, delta int, gamma float64) float64 {
	if f < 1 {
		f = 1
	}
	logD := math.Log2(math.Max(float64(delta), 4))
	loglogD := math.Log2(math.Max(logD, 2))
	fTerm := float64(f) * math.Max(math.Log2(math.Max(float64(f)/eps, 2)), 1)
	ratio := logD / (fTerm * loglogD)
	if ratio >= math.Pow(logD, gamma/2) {
		return math.Max(2, ratio)
	}
	return 2
}

// TheoreticalIterationBound evaluates the Theorem 8 bound
// O(log_α(Δ·2^{f·z}) + f·z·α) without constants; used to derive the default
// iteration cap and by shape experiments.
func TheoreticalIterationBound(f int, eps float64, delta int, alpha float64) float64 {
	if alpha < 2 {
		alpha = 2
	}
	z := float64(ZLevels(f, eps))
	logD := math.Log2(math.Max(float64(delta), 4))
	raise := (logD + float64(f)*z) / math.Log2(alpha)
	stuck := float64(f) * z * alpha
	return raise + stuck
}

// defaultIterationCap returns a generous run cap derived from Theorem 8.
func defaultIterationCap(f int, eps float64, delta int, alpha float64) int {
	bound := TheoreticalIterationBound(f, eps, delta, alpha)
	cap := int(64*bound) + 1024
	return cap
}

// Run executes Algorithm MWHVC on g with the lockstep runner and returns
// the cover, duals and measured complexity. The input hypergraph must be
// valid (use hypergraph.Validate for untrusted inputs). A non-nil carry
// warm-starts a residual solve (residual.go); nil is a cold start.
func Run(g *hypergraph.Hypergraph, opts Options, carry []float64) (*Result, error) {
	if err := opts.validate(g); err != nil {
		return nil, err
	}
	if err := validateCarry(g, carry); err != nil {
		return nil, err
	}
	if opts.Exact {
		return runLockstep(newRatNumeric(), g, opts, carry)
	}
	return runLockstepFloat(g, opts, carry)
}

// RatioBound is the run certificate's realized ratio weight/dual: 1 for an
// empty cover without dual, +Inf for a non-empty cover without dual.
func RatioBound(weight int64, dual float64) float64 {
	switch {
	case dual > 0:
		return float64(weight) / dual
	case weight == 0:
		return 1
	default:
		return math.Inf(1)
	}
}

// finish fills the Result fields every engine derives the same way from
// InCover and Dual: Cover (ascending), CoverWeight, DualValue (summed in
// ascending edge id, the order every engine accumulates in) and RatioBound.
func finish(g *hypergraph.Hypergraph, res *Result) {
	// Pre-count the cover so Cover is sized in one allocation; the
	// ascending vertex scan appends it already sorted.
	size := 0
	for _, in := range res.InCover {
		if in {
			size++
		}
	}
	if size > 0 {
		res.Cover = make([]hypergraph.VertexID, 0, size)
	}
	for v, in := range res.InCover {
		if in {
			res.Cover = append(res.Cover, hypergraph.VertexID(v))
			res.CoverWeight += g.Weight(hypergraph.VertexID(v))
		}
	}
	for _, d := range res.Dual {
		res.DualValue += d
	}
	res.RatioBound = RatioBound(res.CoverWeight, res.DualValue)
}
