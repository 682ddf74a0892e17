package distcover

import (
	"log/slog"

	"distcover/internal/congest"
	"distcover/internal/core"
	"distcover/internal/telemetry"
)

// Option configures Solve, SolveCongest and SolveILP.
type Option interface {
	apply(*solveConfig)
}

type solveConfig struct {
	core   core.Options
	engine engineKind
	shards int
	// congest records that an engine option was given explicitly. Solve and
	// SolveCongest override it (their execution path is fixed by the call);
	// sessions use it to decide between the lockstep simulator (default)
	// and the message protocol on the selected engine.
	congest bool
	// flat routes Solve and session residual re-solves through the
	// chunk-parallel flat runner instead of the sequential lockstep
	// simulator. Results are bit-identical; only speed changes.
	flat bool
	// parallelism is the flat runner's worker count (0 = GOMAXPROCS).
	parallelism int
	// clusterPeers, when non-empty, routes solves and session residual
	// re-solves across coverd peer processes (ClusterSolve's path).
	clusterPeers []string
	// clusterParts is the cluster partition count (0 = one per peer).
	clusterParts int
	// recorder accumulates the solve's trace report (WithTelemetry); also
	// receives Start/Stop engine spans and donates its trace id to
	// cluster solves.
	recorder *telemetry.Recorder
	// tracer is an additional raw hook sink (WithTracer), fanned in with
	// the recorder. coverd routes its Prometheus adapter here.
	tracer telemetry.Tracer
	// logger receives structured cluster coordinator logs (WithLogger).
	logger *slog.Logger
}

// effectiveTracer combines the recorder and the raw tracer; nil when
// tracing is off entirely (the zero-overhead default).
func (c *solveConfig) effectiveTracer() telemetry.Tracer {
	if c.recorder == nil {
		if c.tracer == nil {
			return nil
		}
		return c.tracer
	}
	if c.tracer == nil {
		return c.recorder
	}
	return telemetry.Multi(c.recorder, c.tracer)
}

// startSpan opens the recorder's engine span (if any) and wires the
// effective tracer into the core options. Returns a stop func; both are
// no-ops when tracing is off.
func (c *solveConfig) startSpan(engine string) func() {
	if tr := c.effectiveTracer(); tr != nil {
		c.core.Tracer = tr
	}
	if c.recorder == nil {
		return func() {}
	}
	c.recorder.Start(engine)
	return c.recorder.Stop
}

// congestEngineName is the engine label telemetry spans and the coverd
// phase metrics use for the configured CONGEST engine.
func (c *solveConfig) congestEngineName() string {
	switch c.engine {
	case engineSharded:
		return "congest-sharded"
	case engineTCP:
		return "congest-tcp"
	default:
		return "congest-sequential"
	}
}

type engineKind int

const (
	engineSequential engineKind = iota
	engineSharded
	engineTCP
)

type optionFunc func(*solveConfig)

func (f optionFunc) apply(c *solveConfig) { f(c) }

// WithEpsilon sets the approximation slack ε ∈ (0, 1]: the cover weighs at
// most (f+ε)·OPT. The default is 1.
func WithEpsilon(eps float64) Option {
	return optionFunc(func(c *solveConfig) { c.core.Epsilon = eps })
}

// WithFApproximation requests a clean f-approximation by setting
// ε = 1/(n·W) internally (Corollary 10); rounds grow to O(f·log n).
func WithFApproximation() Option {
	return optionFunc(func(c *solveConfig) { c.core.FApprox = true })
}

// WithSingleLevelVariant selects the Appendix C variant in which dual
// variables grow by bid/2 and no vertex gains more than one level per
// iteration; iterations at most double (Lemma 22).
func WithSingleLevelVariant() Option {
	return optionFunc(func(c *solveConfig) { c.core.Variant = core.VariantSingleLevel })
}

// WithLocalAlpha lets every edge derive its bid multiplier α(e) from its
// local maximum degree Δ(e) instead of the global Δ (remark after
// Theorem 9); no global knowledge of Δ is needed.
func WithLocalAlpha() Option {
	return optionFunc(func(c *solveConfig) { c.core.Alpha = core.AlphaLocal })
}

// WithFixedAlpha pins the bid multiplier to a constant α ≥ 2 (ablation
// studies; Theorem 8 bounds iterations by O(log_α Δ + f·log(f/ε)·α)).
func WithFixedAlpha(alpha float64) Option {
	return optionFunc(func(c *solveConfig) {
		c.core.Alpha = core.AlphaFixed
		c.core.FixedAlpha = alpha
	})
}

// WithExactArithmetic switches all bid/dual arithmetic to exact rationals
// (math/big). Slower; intended for verification. Not available on the
// CONGEST path.
func WithExactArithmetic() Option {
	return optionFunc(func(c *solveConfig) { c.core.Exact = true })
}

// WithMaxIterations overrides the Theorem 8-derived iteration safety cap.
func WithMaxIterations(n int) Option {
	return optionFunc(func(c *solveConfig) { c.core.MaxIterations = n })
}

// WithTrace records per-iteration statistics (joins, level increments,
// raises, stuck vertices) in Solution.Trace; useful for studying the
// algorithm's dynamics.
func WithTrace() Option {
	return optionFunc(func(c *solveConfig) { c.core.CollectTrace = true })
}

// WithInvariantChecks verifies the paper's invariants (Claims 1, 2 and 4)
// after every iteration and fails the solve if any is violated. Intended
// for verification runs; costs O(n+m) per iteration. In-process
// partitioned solves (WithClusterPartitions without peers) check every
// partition's own range; solves on TCP cluster peers drop the option, since
// the setup frames do not carry it.
func WithInvariantChecks() Option {
	return optionFunc(func(c *solveConfig) { c.core.CheckInvariants = true })
}

// WithFlatEngine makes Solve, NewSession and every Session.Update run the
// chunk-parallel flat solver: each vertex/edge phase of the lockstep
// algorithm becomes a parallel-for over contiguous ranges of the instance's
// CSR arrays, with a deterministic reduction that keeps the result
// bit-identical to the default simulator (and therefore to every CONGEST
// engine) for any worker count. This is the production fast path — it runs
// the algorithm, not the message simulation — and solve latency tracks
// hardware cores. Combine with WithSolverParallelism to pin the worker
// count. Ignored by SolveCongest (which always runs the message protocol);
// exact-arithmetic runs fall back to the sequential exact runner.
func WithFlatEngine() Option {
	return optionFunc(func(c *solveConfig) { c.flat = true })
}

// WithSolverParallelism sets the flat runner's worker count; n ≤ 0 or
// omitting the option means GOMAXPROCS. Implies nothing about which engine
// runs: combine with WithFlatEngine. The result is identical for every n —
// only the wall-clock changes.
func WithSolverParallelism(n int) Option {
	return optionFunc(func(c *solveConfig) { c.parallelism = n })
}

// WithClusterPeers makes Solve, NewSession and every Session.Update
// residual re-solve run partitioned across the given coverd peer processes
// (see ClusterSolve; results stay bit-identical to the single-process
// engines). The peers take precedence over every other engine option.
// ClusterSolve sets it from its peers argument; SolveCongest ignores it.
// Combine with WithClusterPartitions to run more partitions than peers.
func WithClusterPeers(addrs ...string) Option {
	return optionFunc(func(c *solveConfig) {
		c.clusterPeers = append([]string(nil), addrs...)
	})
}

// WithClusterPartitions sets the number of contiguous vertex-range
// partitions a cluster solve splits the instance into; n ≤ 0 or omitting
// the option means one partition per peer. Partitions beyond the peer
// count are assigned round-robin — peers that negotiate protocol v3 carry
// all their partitions multiplexed over one connection. The result is
// identical for every n — only placement changes.
//
// Without WithClusterPeers (or ClusterSolve peers), a positive n selects
// the in-process partitioned engine: the same partition plan runs as
// co-located goroutines over a shared-memory exchanger, no sockets
// involved. Solve, NewSession and Session.Update all honor it.
func WithClusterPartitions(n int) Option {
	return optionFunc(func(c *solveConfig) { c.clusterParts = n })
}

// WithSequentialEngine explicitly selects the deterministic sequential
// CONGEST engine — SolveCongest's default. Its real use is with sessions:
// NewSession runs the fast lockstep simulator unless an engine option asks
// for the message protocol, and this option is how to ask for the default
// engine. Ignored by Solve.
func WithSequentialEngine() Option {
	return optionFunc(func(c *solveConfig) {
		c.engine = engineSequential
		c.congest = true
	})
}

// WithParallelEngine selects the sharded engine.
//
// Deprecated: use WithShardedEngine.
func WithParallelEngine() Option { return WithShardedEngine() }

// WithShardedEngine makes SolveCongest run the network on the sharded
// engine: nodes are partitioned over a fixed worker pool and messages are
// routed through flat slice mailboxes instead of per-node channels. This is
// the engine for large instances — it handles networks of millions of nodes
// at a small multiple of the lockstep simulator's cost — and its results
// are bit-identical to the other engines. Combine with WithShardCount to
// pin the partition count. Ignored by Solve.
func WithShardedEngine() Option {
	return optionFunc(func(c *solveConfig) {
		c.engine = engineSharded
		c.congest = true
	})
}

// WithShardCount sets the number of node partitions (= pool workers) the
// sharded engine uses; p ≤ 0 or omitting the option means GOMAXPROCS.
// Implies nothing about which engine runs: combine with WithShardedEngine.
func WithShardCount(p int) Option {
	return optionFunc(func(c *solveConfig) { c.shards = p })
}

// WithTCPEngine makes SolveCongest run every network node as its own
// goroutine connected over real TCP loopback sockets, moving the protocol
// messages as encoded bytes (the library's wire codec). Results are
// identical to the other engines; CongestStats.WireBytes reports the real
// traffic. Each node holds one socket, so keep instances within the file
// descriptor limit. Ignored by Solve.
func WithTCPEngine() Option {
	return optionFunc(func(c *solveConfig) {
		c.engine = engineTCP
		c.congest = true
	})
}

// buildEngine materializes the configured CONGEST engine.
func (c solveConfig) buildEngine() congest.Engine {
	switch c.engine {
	case engineSharded:
		return congest.ShardedEngine{Shards: c.shards}
	case engineTCP:
		return congest.NetEngine{Codec: core.WireCodec{}}
	default:
		return congest.SequentialEngine{}
	}
}

func optConfig(opts []Option) solveConfig {
	cfg := solveConfig{core: core.DefaultOptions()}
	for _, o := range opts {
		o.apply(&cfg)
	}
	return cfg
}
