package server

import (
	"fmt"
	"log/slog"
	"runtime"
	"time"

	"distcover"
	"distcover/server/api"
)

// workerPool runs a fixed number of solver goroutines over the job queue.
// One goroutine per worker: solves are CPU-bound, so the pool size bounds
// solver parallelism while the queue bound limits memory under overload.
type workerPool struct {
	queue   *jobQueue
	cache   *resultCache
	metrics *Metrics
	cluster clusterSettings
	logger  *slog.Logger // cluster coordinator logs; nil = silent
	size    int
	stop    chan struct{}
	idle    chan struct{} // one token per worker, returned on exit
}

// clusterSettings carries the server's peer-mode configuration to the
// option mapping: the peer addresses come from the daemon's flags, not
// from requests, so requests can only select the engine and the partition
// count.
type clusterSettings struct {
	peers      []string
	partitions int
}

// options maps the settings plus a request's partition choice onto the
// library options. Without -peers the cluster engine still works when a
// partition count is available (from the request or -partition): the
// partitions run in-process over the shared-memory exchanger instead of
// TCP peers, at most capWorkers of them.
func (c clusterSettings) options(o api.SolveOptions) ([]distcover.Option, error) {
	parts := o.Partitions
	if parts == 0 {
		parts = c.partitions
	}
	if len(c.peers) == 0 {
		if parts <= 0 {
			return nil, fmt.Errorf("coverd: engine %q requires a server started with -peers, or a partition count for the local shared-memory mode", api.EngineCluster)
		}
		return []distcover.Option{distcover.WithClusterPartitions(capWorkers(parts))}, nil
	}
	return []distcover.Option{
		distcover.WithClusterPeers(c.peers...),
		distcover.WithClusterPartitions(parts),
	}, nil
}

func newWorkerPool(size int, q *jobQueue, cache *resultCache, metrics *Metrics) *workerPool {
	return &workerPool{
		queue:   q,
		cache:   cache,
		metrics: metrics,
		size:    size,
		stop:    make(chan struct{}),
		idle:    make(chan struct{}, size),
	}
}

func (p *workerPool) start() {
	for i := 0; i < p.size; i++ {
		go p.worker()
	}
}

func (p *workerPool) worker() {
	defer func() { p.idle <- struct{}{} }()
	for {
		select {
		case <-p.stop:
			return
		case j := <-p.queue.ch:
			p.run(j)
		}
	}
}

// close stops the workers, waits for in-flight solves to finish, then
// fails any jobs still sitting in the queue so their waiters unblock.
func (p *workerPool) close() {
	close(p.stop)
	for i := 0; i < p.size; i++ {
		<-p.idle
	}
	for {
		select {
		case j := <-p.queue.ch:
			j.complete(nil, fmt.Errorf("coverd: server shutting down"))
		default:
			return
		}
	}
}

// run dispatches one job to its kind-specific execution.
func (p *workerPool) run(j *job) {
	if !j.enqueuedAt.IsZero() {
		p.metrics.recordQueueWait(time.Since(j.enqueuedAt))
	}
	switch j.kind {
	case jobSessionCreate:
		p.runSessionCreate(j)
	case jobSessionUpdate:
		p.runSessionUpdate(j)
	case jobSnapshot:
		j.setRunning()
		j.complete(nil, j.snapFn())
	default:
		p.runSolve(j)
	}
}

// runSessionCreate performs a session's initial solve.
func (p *workerPool) runSessionCreate(j *job) {
	j.setRunning()
	opts, err := libOptions(j.opts, p.cluster)
	if err != nil {
		j.complete(nil, err)
		return
	}
	// The tracer attached here persists in the session's stored config, so
	// later Update re-solves keep feeding the phase metrics too.
	opts = append(opts, distcover.WithTracer(p.metrics.SolveTracer(engineLabel(j.opts.Engine))))
	if p.logger != nil {
		opts = append(opts, distcover.WithLogger(p.logger))
	}
	start := time.Now()
	sess, err := distcover.NewSession(j.inst, opts...)
	elapsed := time.Since(start)
	p.metrics.recordSolve(elapsed.Seconds(), err)
	if err != nil {
		j.complete(nil, err)
		return
	}
	j.newSess = sess
	j.complete(&api.SolveResult{ElapsedMS: float64(elapsed.Microseconds()) / 1000}, nil)
}

// runSessionUpdate applies one delta batch; concurrent updates to the same
// session serialize inside Session.Update.
func (p *workerPool) runSessionUpdate(j *job) {
	j.setRunning()
	start := time.Now()
	st, err := j.sessEntry.sess.Update(j.delta)
	elapsed := time.Since(start)
	p.metrics.recordSolve(elapsed.Seconds(), err)
	if err != nil {
		j.complete(nil, err)
		return
	}
	j.upd = st
	j.complete(&api.SolveResult{ElapsedMS: float64(elapsed.Microseconds()) / 1000}, nil)
}

// runSolve executes one solve job: cache lookup, solve, cache fill, metrics.
func (p *workerPool) runSolve(j *job) {
	j.setRunning()
	// A second lookup here (the handler already checked at submit time)
	// catches duplicates that were queued behind the first computation of
	// the same instance.
	if !j.skipCacheRead() {
		if res := p.cache.get(j.cacheKey); res != nil {
			p.metrics.recordCache(true)
			j.complete(res, nil)
			return
		}
	}
	extra := []distcover.Option{
		distcover.WithTracer(p.metrics.SolveTracer(engineLabel(j.opts.Engine))),
	}
	if p.logger != nil {
		extra = append(extra, distcover.WithLogger(p.logger))
	}
	var rec *distcover.TraceRecorder
	if j.opts.Trace {
		// The job id doubles as the trace id, so a traced cluster solve is
		// findable in coordinator and peer logs by the id the client holds.
		rec = distcover.NewTraceRecorder(j.id)
		extra = append(extra, distcover.WithTelemetry(rec))
	}
	start := time.Now()
	res, err := solve(j.inst, j.ilp, j.opts, p.cluster, extra...)
	elapsed := time.Since(start)
	p.metrics.recordSolve(elapsed.Seconds(), err)
	if err != nil {
		j.complete(nil, err)
		return
	}
	res.ElapsedMS = float64(elapsed.Microseconds()) / 1000
	res.InstanceHash = j.hash
	if rec != nil {
		res.Report = rec.Report()
	}
	if !j.skipCacheWrite() {
		p.cache.put(j.cacheKey, res)
	}
	j.complete(res, nil)
}

// engineLabel is the metric label for a request's engine choice.
func engineLabel(engine string) string {
	if engine == "" {
		return api.EngineSim
	}
	return engine
}

// baseLibOptions maps the engine-independent api.SolveOptions onto the
// library's functional options.
func baseLibOptions(o api.SolveOptions) []distcover.Option {
	var opts []distcover.Option
	if o.FApprox {
		opts = append(opts, distcover.WithFApproximation())
	} else if o.Epsilon != 0 {
		opts = append(opts, distcover.WithEpsilon(o.Epsilon))
	}
	if o.SingleLevel {
		opts = append(opts, distcover.WithSingleLevelVariant())
	}
	if o.LocalAlpha {
		opts = append(opts, distcover.WithLocalAlpha())
	}
	if o.Alpha != 0 {
		opts = append(opts, distcover.WithFixedAlpha(o.Alpha))
	}
	if o.MaxIterations != 0 {
		opts = append(opts, distcover.WithMaxIterations(o.MaxIterations))
	}
	return opts
}

// capWorkers caps a request's worker, shard or in-process partition count
// at GOMAXPROCS. Results never depend on the count, no more workers than
// that run at once, and each one costs a goroutine and, for a partition, a
// whole-instance arena. A count ≤ 0 keeps its meaning (one per CPU, or the
// server's default).
func capWorkers(n int) int {
	if max := runtime.GOMAXPROCS(0); n > max {
		return max
	}
	return n
}

// libOptions additionally maps the engine choice: the frontier runner's
// worker count, the cluster partitions (across the server's peers, or
// in-process), or a CONGEST engine. For sessions an explicit CONGEST
// engine option switches NewSession from the frontier runner to the
// message protocol on that engine; for solves it accompanies the library
// call solve picks.
func libOptions(o api.SolveOptions, cluster clusterSettings) ([]distcover.Option, error) {
	opts := baseLibOptions(o)
	switch o.Engine {
	case "", api.EngineSim:
	case api.EngineFlat:
		opts = append(opts, distcover.WithSolverParallelism(capWorkers(o.Parallelism)))
	case api.EngineCluster:
		copts, err := cluster.options(o)
		if err != nil {
			return nil, err
		}
		opts = append(opts, copts...)
	case api.EngineCongest:
		opts = append(opts, distcover.WithSequentialEngine())
	case api.EngineCongestParallel, api.EngineCongestSharded:
		opts = append(opts, distcover.WithShardedEngine(), distcover.WithShardCount(capWorkers(o.Shards)))
	case api.EngineCongestTCP:
		opts = append(opts, distcover.WithTCPEngine())
	default:
		return nil, fmt.Errorf("coverd: unknown engine %q", o.Engine)
	}
	return opts, nil
}

// solve maps api.SolveOptions onto the library's functional options and
// dispatches to the right execution path. extra carries per-job telemetry
// options (tracer, recorder, logger) from the worker pool.
func solve(inst *distcover.Instance, ilp *distcover.ILP, o api.SolveOptions, cluster clusterSettings, extra ...distcover.Option) (*api.SolveResult, error) {
	if ilp != nil {
		sol, err := distcover.SolveILP(ilp, append(baseLibOptions(o), extra...)...)
		if err != nil {
			return nil, err
		}
		ratio := 0.0
		if sol.DualLowerBound > 0 {
			ratio = float64(sol.Value) / sol.DualLowerBound
		}
		return &api.SolveResult{
			X:              sol.X,
			Value:          sol.Value,
			DualLowerBound: sol.DualLowerBound,
			RatioBound:     ratio,
			Iterations:     sol.Iterations,
			Rounds:         sol.Rounds,
		}, nil
	}

	opts, err := libOptions(o, cluster)
	if err != nil {
		return nil, err
	}
	opts = append(opts, extra...)
	var (
		sol   *distcover.Solution
		stats *distcover.CongestStats
	)
	switch o.Engine {
	case api.EngineCongest, api.EngineCongestParallel, api.EngineCongestSharded, api.EngineCongestTCP:
		sol, stats, err = distcover.SolveCongest(inst, opts...)
	default:
		sol, err = distcover.Solve(inst, opts...)
	}
	if err != nil {
		return nil, err
	}
	return coverResult(sol, stats), nil
}

func coverResult(sol *distcover.Solution, stats *distcover.CongestStats) *api.SolveResult {
	res := &api.SolveResult{
		Cover:          sol.Cover,
		Weight:         sol.Weight,
		DualLowerBound: sol.DualLowerBound,
		RatioBound:     sol.RatioBound,
		Epsilon:        sol.Epsilon,
		Iterations:     sol.Iterations,
		Rounds:         sol.Rounds,
	}
	if stats != nil {
		res.Congest = &api.CongestInfo{
			Rounds:         stats.Rounds,
			Messages:       stats.Messages,
			TotalBits:      stats.TotalBits,
			MaxMessageBits: stats.MaxMessageBits,
			WireBytes:      stats.WireBytes,
		}
	}
	return res
}
