package distcover

import (
	"fmt"

	"distcover/internal/cluster"
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
// The peers argument replaces any WithClusterPeers option. With no peers
// and WithClusterPartitions(n), the same partitioned solve runs entirely
// in-process: the partitions become co-located goroutines synchronizing
// through a shared-memory exchanger instead of TCP — the fast path for
// multi-partition work that happens to live on one machine. With neither,
// ClusterSolve returns ErrNoPeers. The flat and CONGEST engine options are
// ignored.
func ClusterSolve(in *Instance, peers []string, opts ...Option) (*Solution, error) {
	if in == nil {
		return nil, ErrNilInstance
	}
	cfg := optConfig(opts)
	cfg.clusterPeers = append([]string(nil), peers...)
	if len(cfg.clusterPeers) == 0 && cfg.clusterParts <= 0 {
		return nil, fmt.Errorf("distcover: %w", ErrNoPeers)
	}
	res, _, err := run(in.g, cfg, nil, 0)
	if err != nil {
		return nil, fmt.Errorf("distcover: %w", err)
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
	ccfg := cluster.Config{Peers: peers, Logger: cfg.logger, Tracer: cfg.effectiveTracer()}
	if err := cluster.Invalidate(hash, ccfg); err != nil {
		return fmt.Errorf("distcover: cluster: %w", err)
	}
	return nil
}
