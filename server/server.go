// Package server implements coverd, a long-running HTTP/JSON service that
// exposes the library's distributed covering solvers to many concurrent
// clients. Built entirely on the standard library, it consists of:
//
//   - a bounded job queue (backpressure: full queue ⇒ HTTP 429),
//   - a fixed-size worker pool (one solver goroutine per worker),
//   - an LRU instance-result cache keyed by the canonical content hash of
//     the instance (Instance.Hash) plus an option fingerprint,
//   - an async job registry for fire-and-poll workloads,
//   - Prometheus-format metrics (solve counts, latency histogram, cache
//     hit/miss, queue depth).
//
// Endpoints:
//
//	POST   /v1/solve                solve one instance (sync, or async with "async":true)
//	POST   /v1/solve/batch          solve many instances through the same pool
//	GET    /v1/jobs/{id}            status/result of an async job
//	POST   /v1/sessions             open an incremental session (initial solve)
//	POST   /v1/sessions/{id}/update apply a delta batch (residual re-solve)
//	GET    /v1/sessions/{id}        current session state
//	DELETE /v1/sessions/{id}        close and forget a session
//	GET    /healthz                 liveness + queue/cache/session stats
//	GET    /metrics                 Prometheus text format
//
// See distcover/server/api for the wire types and distcover/client for the
// Go client.
package server

import (
	"bytes"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"sync"
	"time"

	"distcover"
	"distcover/internal/durable"
	"distcover/server/api"
)

// Config parameterizes a Server. The zero value gets sensible defaults
// from New.
type Config struct {
	// Workers is the solver pool size (default: GOMAXPROCS).
	Workers int
	// QueueDepth bounds the job queue; submits beyond it fail with 429
	// (default 256).
	QueueDepth int
	// CacheSize is the LRU instance-result cache capacity in entries;
	// 0 uses the default 1024, negative disables caching.
	CacheSize int
	// MaxBatch caps the number of requests in one batch (default 4096).
	MaxBatch int
	// MaxBodyBytes caps request body size (default 32 MiB).
	MaxBodyBytes int64
	// JobCapacity bounds how many async jobs are retained for polling
	// (default 4096).
	JobCapacity int
	// SessionCapacity bounds how many incremental sessions are kept live
	// (default 128); a secondary cap on registry bookkeeping.
	SessionCapacity int
	// SessionMemoryBudget bounds the total estimated heap footprint of all
	// live sessions in bytes (default 256 MiB; negative disables the byte
	// bound). Sessions are weighed by Session.MemoryBytes — instance CSR
	// arrays plus carried solver state — and the least recently used are
	// evicted and closed when the total exceeds the budget, including when
	// an update grows a session past it. This is the primary session bound:
	// it holds under mixed instance sizes where a plain count cannot.
	SessionMemoryBudget int64
	// ClusterPeers are the coverd peer-protocol addresses this server may
	// coordinate solves across (coverd -peers). Empty disables the
	// "cluster" engine: requests asking for it are rejected.
	ClusterPeers []string
	// ClusterPartitions is the default partition count for cluster solves
	// when the request leaves SolveOptions.Partitions at 0 (0 = one
	// partition per peer).
	ClusterPartitions int
	// Logger receives the structured solve logs (today the cluster
	// coordinator's per-solve and per-peer lines, each carrying the
	// solve's trace id). nil is silent.
	Logger *slog.Logger
	// WALDir, when non-empty, makes sessions durable: creates, delta
	// batches and deletes are logged to a write-ahead log in this directory
	// before they are acknowledged, and Open rehydrates the surviving
	// sessions on restart (coverd -wal-dir). Empty disables durability.
	// With a ring configured this is the SHARED root: each member logs
	// under its own subdirectory (see walDir), which is what lets a
	// takeover coordinator replay a dead member's sessions.
	WALDir string
	// RingSelf and RingMembers put this server on a consistent-hash
	// coordinator ring (coverd -ring-self/-ring): RingMembers is the full
	// static membership list (every member gets the same one), RingSelf is
	// this server's advertised address and must appear in the list. Both
	// empty disables the ring. See server/ring.go for routing, forwarding
	// and takeover semantics.
	RingSelf    string
	RingMembers []string
	// SnapshotInterval is how often the WAL is compacted into a snapshot
	// file (default 1m when WALDir is set; coverd -snapshot-interval).
	SnapshotInterval time.Duration
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	switch {
	case c.CacheSize == 0:
		c.CacheSize = 1024
	case c.CacheSize < 0:
		c.CacheSize = 0
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 4096
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 32 << 20
	}
	if c.JobCapacity <= 0 {
		c.JobCapacity = 4096
	}
	if c.SessionCapacity <= 0 {
		c.SessionCapacity = 128
	}
	switch {
	case c.SessionMemoryBudget == 0:
		c.SessionMemoryBudget = 256 << 20
	case c.SessionMemoryBudget < 0:
		c.SessionMemoryBudget = 0
	}
	if c.SnapshotInterval <= 0 {
		c.SnapshotInterval = time.Minute
	}
	return c
}

// Server is the coverd service. Create with New, expose via Handler, and
// stop with Close.
type Server struct {
	cfg      Config
	queue    *jobQueue
	pool     *workerPool
	cache    *resultCache
	metrics  *Metrics
	jobs     *jobRegistry
	sessions *sessionRegistry
	mux      *http.ServeMux

	// Durability (nil wal ⇒ disabled). commitMu makes apply+log atomic with
	// respect to snapshots: mutating handlers hold the read side across
	// (apply to session, append WAL record), the snapshot writer holds the
	// write side across (capture sessions, write snapshot file). Without it
	// a snapshot could capture an applied update whose record lands after
	// the snapshot's sequence number and gets replayed twice on recovery.
	wal      *durable.Store
	commitMu sync.RWMutex
	snapStop chan struct{}
	snapDone chan struct{}

	// Coordinator ring (nil ⇒ standalone). See server/ring.go.
	ringst *ringState
}

// New builds a Server and starts its worker pool. It panics if the
// configured WAL directory cannot be opened or replayed; use Open to
// handle durability errors.
func New(cfg Config) *Server {
	s, err := Open(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Open builds a Server, recovers durable sessions from cfg.WALDir if set,
// and starts the worker pool and snapshot loop.
func Open(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		queue:    newJobQueue(cfg.QueueDepth),
		cache:    newResultCache(cfg.CacheSize),
		metrics:  NewMetrics(),
		jobs:     newJobRegistry(cfg.JobCapacity),
		sessions: newSessionRegistry(cfg.SessionCapacity, cfg.SessionMemoryBudget),
	}
	s.pool = newWorkerPool(cfg.Workers, s.queue, s.cache, s.metrics)
	s.pool.cluster = clusterSettings{peers: cfg.ClusterPeers, partitions: cfg.ClusterPartitions}
	s.pool.logger = cfg.Logger
	if cfg.RingSelf != "" || len(cfg.RingMembers) > 0 {
		st, err := newRingState(cfg.RingSelf, cfg.RingMembers)
		if err != nil {
			return nil, err
		}
		s.ringst = st
	}
	if cfg.WALDir != "" {
		if err := s.openWAL(); err != nil {
			return nil, err
		}
	}
	s.pool.start()
	s.mux = http.NewServeMux()
	s.routes()
	return s, nil
}

// Handler returns the HTTP handler serving the coverd API. On a ring
// member it counts hop-marked arrivals (requests another member forwarded
// or redirected here) before dispatch.
func (s *Server) Handler() http.Handler {
	if s.ringst == nil {
		return s.mux
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if ringHopped(r) {
			s.metrics.recordRingHop()
		}
		s.mux.ServeHTTP(w, r)
	})
}

// Metrics exposes the server's metrics registry (tests, embedding).
func (s *Server) Metrics() *Metrics { return s.metrics }

// Close stops the worker pool; queued jobs fail, in-flight solves finish.
// With a WAL configured it then writes a final snapshot and closes the log,
// so a clean shutdown restarts from the snapshot alone.
func (s *Server) Close() {
	if s.wal != nil {
		close(s.snapStop)
		<-s.snapDone
	}
	s.pool.close()
	if s.wal != nil {
		if err := s.snapshotNow(true); err != nil && s.cfg.Logger != nil {
			s.cfg.Logger.Warn("coverd: final snapshot failed", "err", err)
		}
		if err := s.wal.Close(); err != nil && s.cfg.Logger != nil {
			s.cfg.Logger.Warn("coverd: wal close failed", "err", err)
		}
	}
}

// Workers returns the configured worker pool size.
func (s *Server) Workers() int { return s.cfg.Workers }

// problem is a decoded solve body: exactly one of inst and ilp, and its
// content hash, which is both the ring key and the result-cache identity.
type problem struct {
	inst *distcover.Instance
	ilp  *distcover.ILP
	hash string
}

// decodeProblem decodes and validates the instance or ILP of a solve
// request and hashes it. It runs once per request: the ring routes by the
// hash, and the job is built from the same decoded value.
func decodeProblem(req *api.SolveRequest) (problem, error) {
	hasInstance := api.Present(req.Instance)
	switch {
	case hasInstance && req.ILP != nil:
		return problem{}, fmt.Errorf("request sets both instance and ilp")
	case hasInstance:
		inst, err := distcover.ReadInstance(bytes.NewReader(req.Instance))
		if err != nil {
			return problem{}, err
		}
		return problem{inst: inst, hash: inst.Hash()}, nil
	case req.ILP != nil:
		ilp := distcover.NewILP(req.ILP.Weights)
		for i, c := range req.ILP.Constraints {
			if err := ilp.AddConstraint(c.Vars, c.Coefs, c.Bound); err != nil {
				return problem{}, fmt.Errorf("constraint %d: %w", i, err)
			}
		}
		if err := ilp.Validate(); err != nil {
			return problem{}, err
		}
		return problem{ilp: ilp, hash: api.KeyILP(req.ILP)}, nil
	default:
		return problem{}, fmt.Errorf("request must set instance or ilp")
	}
}

// buildJob turns a solve request and decodeProblem's outcome for it into a
// queueable job. The engine check comes first, so a request that is both
// unservable here and malformed reports the engine.
func (s *Server) buildJob(req *api.SolveRequest, p problem, decodeErr error) (*job, error) {
	// Reject an unservable cluster request up front: it shares the
	// simulator's cache identity, so deferring the check to the worker
	// would let a warm cache serve what configuration says must fail. A
	// peerless server can still serve the engine when a partition count is
	// available (request or -partitions) — that is the in-process
	// shared-memory mode.
	if req.Options.Engine == api.EngineCluster && len(s.cfg.ClusterPeers) == 0 &&
		req.Options.Partitions <= 0 && s.cfg.ClusterPartitions <= 0 {
		return nil, fmt.Errorf("coverd: engine %q requires a server started with -peers, or a partition count for the local shared-memory mode", api.EngineCluster)
	}
	if decodeErr != nil {
		return nil, decodeErr
	}
	return newJob(p.inst, p.ilp, req.Options, p.hash, p.hash+"|"+req.Options.Fingerprint()), nil
}

// lookupCache serves a request from the cache if allowed, recording
// hit/miss metrics. Returns nil on miss.
func (s *Server) lookupCache(j *job) *api.SolveResult {
	if j.skipCacheRead() {
		return nil
	}
	res := s.cache.get(j.cacheKey)
	s.metrics.recordCache(res != nil)
	return res
}
