package distcover

import (
	"context"
	"fmt"

	"distcover/internal/cluster"
	"distcover/internal/core"
	"distcover/internal/hypergraph"
)

// Cluster errors, re-exported so callers can errors.Is against the public
// package.
var (
	// ErrPeerLost indicates a cluster peer died, was killed or timed out
	// mid-operation. The coordinator-side state (including any Session the
	// operation ran under) is unchanged; restart or replace the peer and
	// retry.
	ErrPeerLost = cluster.ErrPeerLost
	// ErrPeerFailed indicates a peer reported a solver-level failure.
	ErrPeerFailed = cluster.ErrPeerFailed
	// ErrNoPeers indicates a cluster operation without configured peers.
	ErrNoPeers = cluster.ErrNoPeers
)

// ClusterSolve runs Algorithm MWHVC partitioned across the given coverd
// peer processes: the instance's CSR vertex range is split into contiguous
// partitions (one per peer unless WithClusterPartitions says otherwise),
// each peer executes the lockstep solver over its range, and only
// boundary-vertex levels and join/raise flags cross the wire between
// iterations. The result is bit-identical to Solve/WithFlatEngine on the
// undivided instance — the cluster equivalence property test enforces it —
// so clustering changes where the work runs, never what it returns.
//
// Peers are coverd processes started with -peer-listen (or any
// cluster.Peer). A dead or unreachable peer surfaces as ErrPeerLost;
// nothing is partially committed and the call can be retried once the peer
// is back.
//
// With no peers and WithClusterPartitions(n), the same partitioned solve
// runs entirely in-process: the partitions become co-located goroutines
// synchronizing through a shared-memory exchanger instead of TCP — the
// fast path for multi-partition work that happens to live on one machine.
func ClusterSolve(in *Instance, peers []string, opts ...Option) (*Solution, error) {
	if in == nil {
		return nil, ErrNilInstance
	}
	cfg := optConfig(opts)
	cfg.clusterPeers = append([]string(nil), peers...)
	res, err := clusterRun(in.g, cfg, nil)
	if err != nil {
		return nil, err
	}
	return solutionFromResult(res), nil
}

// ClusterInvalidate asks every listed peer to drop its cached copy of the
// instance with the given canonical content hash (Instance.Hash). Peer
// instance caches are content-addressed soft state — entries are immutable
// and eviction is never needed for correctness — so this is purely capacity
// and lifecycle management: coverd calls it when a cluster session is
// deleted, and long-running coordinators can call it after retiring an
// instance. All peers are attempted even if one fails; the first error is
// returned. An unknown hash is not an error (the drop is idempotent).
func ClusterInvalidate(hash string, peers []string, opts ...Option) error {
	cfg := optConfig(opts)
	ccfg := cluster.Config{Peers: peers, Logger: cfg.logger}
	if tr := cfg.effectiveTracer(); tr != nil {
		ccfg.Tracer = tr
	}
	if err := cluster.Invalidate(hash, ccfg); err != nil {
		return fmt.Errorf("distcover: cluster: %w", err)
	}
	return nil
}

// clusterRun dispatches a (possibly warm-started) solve to the configured
// cluster peers — or, when partitions are requested without peers, to the
// in-process shared-memory partitioned runner (same partition planning,
// same lockstep exchange cadence, no sockets).
func clusterRun(g *hypergraph.Hypergraph, cfg solveConfig, carry []float64) (*core.Result, error) {
	if len(cfg.clusterPeers) == 0 && cfg.clusterParts > 0 {
		return clusterRunLocal(g, cfg, carry)
	}
	ccfg := cluster.Config{
		Peers:      cfg.clusterPeers,
		Partitions: cfg.clusterParts,
		Logger:     cfg.logger,
	}
	if tr := cfg.effectiveTracer(); tr != nil {
		ccfg.Tracer = tr
	}
	if cfg.recorder != nil {
		ccfg.TraceID = cfg.recorder.TraceID()
	}
	stop := cfg.startSpan("cluster")
	defer stop()
	// The coordinator drives the peers itself; the core tracer hook set by
	// startSpan is for the in-process runners and stays unused here.
	cfg.core.Tracer = nil
	var (
		res *core.Result
		err error
	)
	if carry == nil {
		res, err = cluster.Solve(g, cfg.core, ccfg)
	} else {
		res, err = cluster.SolveResidual(g, cfg.core, carry, ccfg)
	}
	if err != nil {
		return nil, fmt.Errorf("distcover: cluster: %w", err)
	}
	return res, nil
}

// clusterRunLocal is the shared-memory fast path: the same contiguous
// vertex-range partitions a cluster solve would ship to peers run as
// co-located goroutines over an in-process barrier exchanger, skipping
// TCP and the frame codec entirely. Results are bit-identical to every
// other engine.
func clusterRunLocal(g *hypergraph.Hypergraph, cfg solveConfig, carry []float64) (*core.Result, error) {
	if cfg.core.Exact {
		return nil, fmt.Errorf("distcover: cluster: %w: exact arithmetic is not distributable", core.ErrPartitionOptions)
	}
	// Per-partition runners share nothing with a coordinator-side trace;
	// mirror the wire path, which runs this collector off. Invariant checks
	// stay on when asked for: each partition checks its own range.
	cfg.core.CollectTrace = false
	stop := cfg.startSpan("cluster-local")
	defer stop()
	// The partition runners execute concurrently; the per-iteration phase
	// hooks assume a single runner, so they stay off exactly as they do
	// for the coordinator on the wire path.
	cfg.core.Tracer = nil
	res, err := core.RunPartitioned(context.Background(), g, cfg.core, carry, cfg.clusterParts)
	if err != nil {
		return nil, fmt.Errorf("distcover: cluster: %w", err)
	}
	return res, nil
}
