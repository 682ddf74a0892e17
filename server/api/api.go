// Package api defines the JSON wire types of the coverd service. Both the
// server handlers and the Go client (distcover/client) speak these types,
// so they live in their own package with no dependencies beyond the
// standard library and the telemetry report types.
//
// Instances travel in the exact JSON shape the library's codec already
// uses ({"weights":[...],"edges":[[...]]}, see distcover.ReadInstance), so
// anything that can produce an instance file can talk to the service.
package api

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"distcover/internal/telemetry"
)

// TraceReport is the per-solve telemetry report returned in
// SolveResult.Report when SolveOptions.Trace is set: total and per-phase
// wall time, per-iteration phase timings (with chunk imbalance on the
// flat engine and exchange waits on the cluster engine), per-peer
// exchange latency and wire volume, and CONGEST round/message totals.
type TraceReport = telemetry.Report

// Engine names for SolveOptions.Engine.
const (
	// EngineSim runs the algorithm directly over the instance's CSR arrays
	// on one worker (distcover.Solve); default.
	EngineSim = "sim"
	// EngineFlat runs the same solver as EngineSim on one worker per core,
	// or SolveOptions.Parallelism workers. Results are bit-identical to
	// EngineSim (the two share a cache identity); only the wall-clock
	// changes.
	EngineFlat = "flat"
	// EngineCongest runs the real message protocol on the deterministic
	// sequential CONGEST engine (distcover.SolveCongest).
	EngineCongest = "congest"
	// EngineCongestParallel is an alias of EngineCongestSharded, kept so
	// clients that name the removed goroutine-per-node engine still work.
	EngineCongestParallel = "congest-parallel"
	// EngineCongestSharded runs the CONGEST network on the sharded engine:
	// a fixed worker pool over node partitions with flat slice mailboxes.
	// This is the engine for large instances; results are identical to the
	// other congest engines. See SolveOptions.Shards.
	EngineCongestSharded = "congest-sharded"
	// EngineCongestTCP moves CONGEST messages over real loopback sockets.
	EngineCongestTCP = "congest-tcp"
	// EngineCluster partitions the instance across the coverd peer
	// processes the server was started with (-peers): each peer solves one
	// contiguous vertex range and only boundary state crosses the wire.
	// Results are bit-identical to EngineSim/EngineFlat (shared cache
	// identity). Requires a server configured with peers; see
	// SolveOptions.Partitions.
	EngineCluster = "cluster"
)

// SolveOptions maps one-to-one onto the library's functional options.
type SolveOptions struct {
	// Epsilon is the approximation slack ε ∈ (0,1]; 0 means the library
	// default (1).
	Epsilon float64 `json:"epsilon,omitempty"`
	// FApprox requests a clean f-approximation (ε = 1/(nW) internally).
	FApprox bool `json:"f_approx,omitempty"`
	// SingleLevel selects the Appendix C variant.
	SingleLevel bool `json:"single_level,omitempty"`
	// LocalAlpha derives the bid multiplier per edge from Δ(e).
	LocalAlpha bool `json:"local_alpha,omitempty"`
	// Alpha pins the bid multiplier to a constant ≥ 2 (0 = Theorem 9).
	Alpha float64 `json:"alpha,omitempty"`
	// MaxIterations overrides the iteration safety cap (0 = default).
	MaxIterations int `json:"max_iterations,omitempty"`
	// Engine selects the execution path; see the Engine* constants.
	// Empty means EngineSim.
	Engine string `json:"engine,omitempty"`
	// Shards sets the node-partition count for EngineCongestSharded and
	// its alias EngineCongestParallel (0 = one shard per CPU). The server
	// caps it at its CPU count (GOMAXPROCS). Ignored by the other engines.
	Shards int `json:"shards,omitempty"`
	// Parallelism sets the worker count for EngineFlat (0 = one worker per
	// CPU). The server caps it at its CPU count (GOMAXPROCS). Ignored by
	// the other engines; never changes results.
	Parallelism int `json:"parallelism,omitempty"`
	// Partitions sets the partition count for EngineCluster (0 = one per
	// configured peer). On a server without peers the partitions run
	// in-process, and the server caps the count at its CPU count
	// (GOMAXPROCS). Ignored by the other engines; never changes results.
	Partitions int `json:"partitions,omitempty"`
	// NoCache bypasses the server's instance-result cache for this request
	// (the result is still stored for future requests).
	NoCache bool `json:"no_cache,omitempty"`
	// Trace returns a per-solve telemetry report (SolveResult.Report) with
	// phase/round timings — and, on the cluster engine, per-peer exchange
	// latencies. Traced solves bypass the cache entirely: the report
	// describes this run, so neither a cached result is returned nor the
	// traced result stored.
	Trace bool `json:"trace,omitempty"`
}

// Fingerprint returns a stable string identifying every option that can
// change the solver output. It is combined with the instance content hash
// to form the server's cache key. NoCache and Trace are deliberately
// excluded: they affect lookup policy and reporting, not the result.
func (o SolveOptions) Fingerprint() string {
	eng := o.Engine
	if eng == "" {
		eng = EngineSim
	}
	// The flat and cluster engines are bit-identical to EngineSim
	// (enforced by the engine- and cluster-equivalence property tests), so
	// the three share one cache identity; Parallelism and Partitions change
	// scheduling and placement, not results, and are likewise excluded. The
	// in-memory congest engines produce identical solutions AND identical
	// communication stats, so they share one cache identity too (Shards
	// excluded for the same reason). The TCP engine stays distinct: it
	// additionally reports WireBytes, which a cached in-memory result would
	// be missing.
	if eng == EngineFlat || eng == EngineCluster {
		eng = EngineSim
	}
	if eng == EngineCongestParallel || eng == EngineCongestSharded {
		eng = EngineCongest
	}
	return fmt.Sprintf("eps=%g,fapprox=%t,single=%t,local=%t,alpha=%g,maxit=%d,engine=%s",
		o.Epsilon, o.FApprox, o.SingleLevel, o.LocalAlpha, o.Alpha, o.MaxIterations, eng)
}

// ILPConstraint is one covering constraint Σ coefs[i]·x[vars[i]] ≥ bound.
type ILPConstraint struct {
	Vars  []int   `json:"vars"`
	Coefs []int64 `json:"coefs"`
	Bound int64   `json:"bound"`
}

// ILPSpec is a covering integer program (minimize wᵀx s.t. Ax ≥ b, x ∈ ℕⁿ)
// solved through the paper's Theorem 19 reduction pipeline.
type ILPSpec struct {
	Weights     []int64         `json:"weights"`
	Constraints []ILPConstraint `json:"constraints"`
}

// KeyILP returns the canonical content key of an ILP spec — the identity
// coverd caches ILP results under and the routing key a coordinator ring
// hashes to pick the request's owner. json.Marshal of the spec struct is
// deterministic (fixed field order, ordered slices), so this is canonical
// up to the textual program representation. Server and ring-aware client
// must agree on it, which is why it lives in the shared wire package.
func KeyILP(spec *ILPSpec) string {
	data, err := json.Marshal(spec)
	if err != nil {
		// Marshal of plain ints/slices cannot fail; guard anyway.
		return ""
	}
	sum := sha256.Sum256(append([]byte("distcover/ilp/v1\n"), data...))
	return hex.EncodeToString(sum[:])
}

// Present reports whether a raw instance field carries a value. An
// explicit JSON null means the same as leaving the field out, but
// json.RawMessage keeps it as the four bytes "null".
func Present(raw json.RawMessage) bool {
	return len(raw) > 0 && string(raw) != "null"
}

// SolveRequest submits one problem. Exactly one of Instance and ILP must be
// set (a null Instance counts as unset): Instance carries a hypergraph
// vertex cover / set cover instance in the library's JSON codec shape, ILP
// a covering integer program.
type SolveRequest struct {
	Instance json.RawMessage `json:"instance,omitempty"`
	ILP      *ILPSpec        `json:"ilp,omitempty"`
	Options  SolveOptions    `json:"options,omitempty"`
	// Async makes POST /v1/solve return 202 with a job id immediately;
	// poll GET /v1/jobs/{id} for the result. Ignored inside batches.
	Async bool `json:"async,omitempty"`
}

// CongestInfo reports communication metrics for congest engines.
type CongestInfo struct {
	Rounds         int   `json:"rounds"`
	Messages       int64 `json:"messages"`
	TotalBits      int64 `json:"total_bits"`
	MaxMessageBits int   `json:"max_message_bits"`
	WireBytes      int64 `json:"wire_bytes,omitempty"`
}

// SolveResult is the outcome of one solve. Cover/Weight describe vertex
// cover results; X/Value describe ILP results. The certificate fields
// (DualLowerBound, RatioBound) hold for both: the reported objective is at
// most RatioBound times the optimum.
type SolveResult struct {
	Cover          []int        `json:"cover,omitempty"`
	Weight         int64        `json:"weight,omitempty"`
	X              []int64      `json:"x,omitempty"`
	Value          int64        `json:"value,omitempty"`
	DualLowerBound float64      `json:"dual_lower_bound"`
	RatioBound     float64      `json:"ratio_bound"`
	Epsilon        float64      `json:"epsilon,omitempty"`
	Iterations     int          `json:"iterations"`
	Rounds         int          `json:"rounds"`
	Congest        *CongestInfo `json:"congest,omitempty"`
	// InstanceHash is the canonical content hash used as the cache key.
	InstanceHash string `json:"instance_hash,omitempty"`
	// Cached reports whether the result was served from the instance cache.
	Cached bool `json:"cached"`
	// ElapsedMS is the solver wall time in milliseconds (0 when cached).
	ElapsedMS float64 `json:"elapsed_ms"`
	// Report is the telemetry breakdown of this solve, present only when
	// SolveOptions.Trace was set.
	Report *TraceReport `json:"report,omitempty"`
}

// BatchRequest submits several problems at once. Items are solved through
// the same worker pool as single requests; the call returns when all items
// finish.
type BatchRequest struct {
	Requests []SolveRequest `json:"requests"`
}

// BatchItem is the per-item outcome of a batch: exactly one of Result and
// Error is set.
type BatchItem struct {
	Result *SolveResult `json:"result,omitempty"`
	Error  string       `json:"error,omitempty"`
}

// BatchResponse mirrors BatchRequest.Requests index by index.
type BatchResponse struct {
	Results []BatchItem `json:"results"`
}

// Job states reported by GET /v1/jobs/{id}.
const (
	JobQueued  = "queued"
	JobRunning = "running"
	JobDone    = "done"
	JobFailed  = "failed"
)

// JobStatus describes an async job.
type JobStatus struct {
	ID     string       `json:"id"`
	Status string       `json:"status"`
	Result *SolveResult `json:"result,omitempty"`
	Error  string       `json:"error,omitempty"`
}

// JobAccepted is the 202 response of an async submit.
type JobAccepted struct {
	ID     string `json:"id"`
	Status string `json:"status"`
}

// SessionRequest opens an incremental solving session: the instance is
// solved once and the server keeps its primal/dual state so later delta
// batches re-solve only the residual uncovered part.
type SessionRequest struct {
	Instance json.RawMessage `json:"instance"`
	Options  SolveOptions    `json:"options,omitempty"`
}

// SessionDelta is one update batch: Weights appends vertices, Edges appends
// hyperedges over old and new vertices alike. The shape mirrors the
// instance codec, so delta producers can reuse instance tooling.
type SessionDelta struct {
	Weights []int64 `json:"weights,omitempty"`
	Edges   [][]int `json:"edges,omitempty"`
}

// SessionInfo describes a session's current state. Result carries the
// cumulative solution over the full instance as updated so far; its
// RatioBound never exceeds CertifiedBound = f·(1+ε).
type SessionInfo struct {
	ID             string       `json:"id"`
	InstanceHash   string       `json:"instance_hash"`
	Vertices       int          `json:"vertices"`
	Edges          int          `json:"edges"`
	Rank           int          `json:"rank"`
	Updates        int          `json:"updates"`
	CertifiedBound float64      `json:"certified_bound"`
	Result         *SolveResult `json:"result"`
	// Recovered marks a session rehydrated from the write-ahead log after
	// a restart (coverd -wal-dir) rather than created over this connection.
	Recovered bool `json:"recovered,omitempty"`
}

// SessionList is the GET /v1/sessions response: all live sessions, most
// recently used first.
type SessionList struct {
	Sessions []*SessionInfo `json:"sessions"`
}

// SessionUpdateResult reports what one delta batch did and the refreshed
// session state.
type SessionUpdateResult struct {
	NewVertices      int          `json:"new_vertices"`
	NewEdges         int          `json:"new_edges"`
	CoveredOnArrival int          `json:"covered_on_arrival"`
	ResidualEdges    int          `json:"residual_edges"`
	ResidualVertices int          `json:"residual_vertices"`
	Joined           int          `json:"joined"`
	AddedWeight      int64        `json:"added_weight"`
	Iterations       int          `json:"iterations"`
	Rounds           int          `json:"rounds"`
	ElapsedMS        float64      `json:"elapsed_ms"`
	Session          *SessionInfo `json:"session"`
}

// Health is the GET /healthz response.
type Health struct {
	Status        string `json:"status"`
	Workers       int    `json:"workers"`
	QueueDepth    int    `json:"queue_depth"`
	QueueCapacity int    `json:"queue_capacity"`
	CacheEntries  int    `json:"cache_entries"`
	Sessions      int    `json:"sessions"`
	// SessionBytes is the estimated total heap footprint of live sessions,
	// the quantity the server's byte-budgeted eviction bounds.
	SessionBytes int64 `json:"session_bytes"`
}

// RingInfo is the GET /v1/ring response: the coordinator ring this server
// belongs to. A ring-aware client rebuilds the identical consistent-hash
// ring from Members+VNodes and routes requests straight to their owners;
// routing is a pure function of this response, so any member's answer
// works. Enabled false means the server runs standalone (Members empty)
// and clients should keep using their configured base URL.
type RingInfo struct {
	Enabled bool `json:"enabled"`
	// Self is the advertised address of the answering coordinator (its
	// identity on the ring).
	Self string `json:"self,omitempty"`
	// Members is the full static membership list, sorted.
	Members []string `json:"members,omitempty"`
	// VNodes is the virtual-node count per member used to build the ring.
	VNodes int `json:"vnodes,omitempty"`
}

// Error is the JSON error envelope for non-2xx responses.
type Error struct {
	Error string `json:"error"`
}
