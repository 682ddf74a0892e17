// Package telemetry is the solve-tracing layer threaded through every
// engine: the frontier runner (engine "sim" at one worker, "flat" at
// more), the CONGEST runners and the multi-process cluster
// coordinator/peer all invoke a Tracer at phase boundaries when one is
// configured, and stay strictly zero-overhead (a nil check, no
// allocation) when it is not — the exactly-gated allocation counts in
// BENCH_baseline.json hold with tracing disabled.
//
// The package defines two things: the Tracer hook interface the engines
// call into, and Recorder, the standard implementation that accumulates
// the hooks into a JSON-serializable Report (per-iteration phase
// timings, chunk imbalance, per-peer exchange latency and wire volume,
// protocol round/message totals). coverd adapts the same interface onto
// its Prometheus registry, so one set of hooks feeds both the opt-in
// per-solve trace report and the service metrics.
package telemetry

import (
	"crypto/rand"
	"encoding/hex"
	"sort"
	"sync"
	"time"
)

// Phase names passed to Tracer.Phase. Iteration 0 carries only PhaseInit
// (state construction + warm start); iterations ≥ 1 carry the lockstep
// vertex/edge/gather cadence. Engines that cannot split phases (the
// CONGEST message engines) report one PhaseProtocol span for the whole
// run.
const (
	PhaseInit     = "init"
	PhaseVertex   = "vertex"
	PhaseEdge     = "edge"
	PhaseGather   = "gather"
	PhaseProtocol = "protocol"
)

// Exchange kinds passed to Tracer.Exchange: the two per-iteration
// synchronization points of the partitioned solver (boundary levels
// after the vertex phase, the global coverage count after the edge
// phase).
const (
	ExchangeBoundary = "boundary"
	ExchangeCoverage = "coverage"
)

// Frame directions passed to Tracer.Frame.
const (
	DirSent     = "sent"
	DirReceived = "received"
)

// Tracer receives solve-progress hooks. Implementations must be safe for
// concurrent use: the cluster coordinator and the peer-side partition
// runner invoke one tracer from independent goroutines, and coverd
// shares one adapter across its worker pool.
//
// All hooks are called on hot paths; implementations should be cheap and
// must not block.
type Tracer interface {
	// Phase reports one completed solver phase of the given iteration.
	// maxChunk is the longest single parallel chunk of the phase (chunk
	// imbalance visibility for the flat runner); 0 when the phase is not
	// chunked.
	Phase(iteration int, phase string, d, maxChunk time.Duration)
	// Exchange reports one completed peer exchange: the coordinator
	// passes the peer address it waited on, the partition runner passes
	// "" (recorded as "coordinator") for its side of the same wait.
	Exchange(peer, kind string, iteration int, wait time.Duration)
	// Frame reports one wire frame of the cluster protocol: direction,
	// frame kind (hello/setup/boundary/coverage/allb/allc/result/error)
	// and its full on-wire size (header + payload).
	Frame(peer, dir, kind string, bytes int)
	// Protocol reports the round and message totals of a CONGEST engine
	// run.
	Protocol(rounds int, messages int64)
}

// CacheTracer is an optional extension of Tracer for the content-addressed
// instance fabric: a cluster peer whose tracer also implements this
// interface receives one hook per setup handshake, reporting whether the
// requested instance was already cached (hit) and the decoded size of the
// instance involved. Implementations that don't care simply don't
// implement it — the Tracer interface itself is unchanged, so existing
// implementations keep compiling.
type CacheTracer interface {
	// InstanceCache reports one peer-cache lookup: hit=false means the
	// instance had to be re-synced over the wire. bytes is the decoded
	// in-memory size of the instance (hypergraph.MemoryBytes).
	InstanceCache(hit bool, bytes int)
}

// Multi fans every hook out to all non-nil tracers. It returns nil when
// none remain (so callers can keep the nil-means-disabled contract), and
// the single tracer itself when only one remains.
func Multi(ts ...Tracer) Tracer {
	live := make([]Tracer, 0, len(ts))
	for _, t := range ts {
		if t != nil {
			live = append(live, t)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return multiTracer(live)
}

type multiTracer []Tracer

func (m multiTracer) Phase(iteration int, phase string, d, maxChunk time.Duration) {
	for _, t := range m {
		t.Phase(iteration, phase, d, maxChunk)
	}
}

func (m multiTracer) Exchange(peer, kind string, iteration int, wait time.Duration) {
	for _, t := range m {
		t.Exchange(peer, kind, iteration, wait)
	}
}

func (m multiTracer) Frame(peer, dir, kind string, bytes int) {
	for _, t := range m {
		t.Frame(peer, dir, kind, bytes)
	}
}

func (m multiTracer) Protocol(rounds int, messages int64) {
	for _, t := range m {
		t.Protocol(rounds, messages)
	}
}

// InstanceCache forwards the optional CacheTracer hook to every fanned-out
// tracer that implements it.
func (m multiTracer) InstanceCache(hit bool, bytes int) {
	for _, t := range m {
		if ct, ok := t.(CacheTracer); ok {
			ct.InstanceCache(hit, bytes)
		}
	}
}

// maxRecordedIterations caps the per-iteration detail a Recorder keeps.
// Totals (PhaseSeconds, peer stats) always accumulate; only the
// per-iteration breakdown is bounded, so a pathological million-iteration
// run cannot balloon the report.
const maxRecordedIterations = 4096

// NewTraceID returns a fresh random 16-hex-digit trace id.
func NewTraceID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failure is unrecoverable everywhere else in the
		// system too; a fixed id only degrades log correlation.
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// Recorder is the standard Tracer: it accumulates hooks under a mutex
// and snapshots them into a Report. The zero value is not usable; create
// with NewRecorder.
type Recorder struct {
	mu       sync.Mutex
	traceID  string
	engine   string
	start    time.Time
	total    time.Duration
	running  bool
	phase    map[string]time.Duration
	iters    []iterAcc
	peers    map[string]*peerAcc
	rounds   int
	messages int64

	cacheHits, cacheMisses int
}

type iterAcc struct {
	iteration               int
	initD, vertexD, edgeD   time.Duration
	gatherD, maxChunkD      time.Duration
	boundaryWaitD, covWaitD time.Duration
	protocolD               time.Duration
	seen                    bool
}

type peerAcc struct {
	exchanges      int
	waitD, maxWait time.Duration
	framesSent     int64
	framesRecv     int64
	bytesSent      int64
	bytesRecv      int64
}

// NewRecorder returns a Recorder with the given trace id; an empty id
// gets a fresh random one.
func NewRecorder(traceID string) *Recorder {
	if traceID == "" {
		traceID = NewTraceID()
	}
	return &Recorder{
		traceID: traceID,
		phase:   make(map[string]time.Duration),
		peers:   make(map[string]*peerAcc),
	}
}

// TraceID returns the recorder's trace id.
func (r *Recorder) TraceID() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.traceID
}

// Start marks the beginning of a timed solve on the named engine.
// Starting again resets the wall-clock span but keeps accumulated hook
// data, so a session recorder spans the initial solve plus its updates.
func (r *Recorder) Start(engine string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.engine = engine
	r.start = time.Now()
	r.running = true
}

// Stop closes the span opened by Start, adding it to the total.
func (r *Recorder) Stop() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.running {
		r.total += time.Since(r.start)
		r.running = false
	}
}

func (r *Recorder) iter(iteration int) *iterAcc {
	// Iterations arrive in order from each goroutine; index by iteration
	// number so the coordinator and a partition runner sharing one
	// recorder merge into the same row.
	if iteration < 0 || iteration >= maxRecordedIterations {
		return nil
	}
	for len(r.iters) <= iteration {
		r.iters = append(r.iters, iterAcc{iteration: len(r.iters)})
	}
	it := &r.iters[iteration]
	it.seen = true
	return it
}

// Phase implements Tracer.
func (r *Recorder) Phase(iteration int, phase string, d, maxChunk time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.phase[phase] += d
	it := r.iter(iteration)
	if it == nil {
		return
	}
	switch phase {
	case PhaseInit:
		it.initD += d
	case PhaseVertex:
		it.vertexD += d
	case PhaseEdge:
		it.edgeD += d
	case PhaseGather:
		it.gatherD += d
	case PhaseProtocol:
		it.protocolD += d
	}
	if maxChunk > it.maxChunkD {
		it.maxChunkD = maxChunk
	}
}

// Exchange implements Tracer.
func (r *Recorder) Exchange(peer, kind string, iteration int, wait time.Duration) {
	if peer == "" {
		peer = "coordinator"
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	p := r.peers[peer]
	if p == nil {
		p = &peerAcc{}
		r.peers[peer] = p
	}
	p.exchanges++
	p.waitD += wait
	if wait > p.maxWait {
		p.maxWait = wait
	}
	if it := r.iter(iteration); it != nil {
		switch kind {
		case ExchangeBoundary:
			it.boundaryWaitD += wait
		case ExchangeCoverage:
			it.covWaitD += wait
		}
	}
}

// Frame implements Tracer.
func (r *Recorder) Frame(peer, dir, kind string, bytes int) {
	if peer == "" {
		peer = "coordinator"
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	p := r.peers[peer]
	if p == nil {
		p = &peerAcc{}
		r.peers[peer] = p
	}
	if dir == DirSent {
		p.framesSent++
		p.bytesSent += int64(bytes)
	} else {
		p.framesRecv++
		p.bytesRecv += int64(bytes)
	}
}

// Protocol implements Tracer.
func (r *Recorder) Protocol(rounds int, messages int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.rounds = rounds
	r.messages += messages
}

// InstanceCache implements the optional CacheTracer extension.
func (r *Recorder) InstanceCache(hit bool, bytes int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if hit {
		r.cacheHits++
	} else {
		r.cacheMisses++
	}
}

// Report is the JSON trace report attached to solve results when tracing
// is requested. All durations are seconds.
type Report struct {
	// TraceID correlates this report with coordinator and peer log lines
	// of the same solve.
	TraceID string `json:"trace_id,omitempty"`
	// Engine that executed the (last) solve: sim, flat, cluster,
	// congest, …
	Engine string `json:"engine,omitempty"`
	// TotalSeconds is the wall-clock total between Start and Stop,
	// accumulated across spans for session recorders.
	TotalSeconds float64 `json:"total_seconds"`
	// PhaseSeconds sums each phase across all iterations.
	PhaseSeconds map[string]float64 `json:"phase_seconds,omitempty"`
	// Iterations breaks timings down per lockstep iteration (row 0 is
	// state construction / warm start). Capped at 4096 rows; totals
	// above keep accumulating past the cap.
	Iterations []IterationTiming `json:"iterations,omitempty"`
	// Peers reports per-peer exchange latency and wire volume for
	// cluster solves ("coordinator" is the peer-side view of the
	// coordinator connection).
	Peers []PeerStats `json:"peers,omitempty"`
	// Rounds and Messages are CONGEST protocol totals when a message
	// engine ran.
	Rounds   int   `json:"rounds,omitempty"`
	Messages int64 `json:"messages,omitempty"`
	// InstanceCacheHits and InstanceCacheMisses count the peer-side
	// content-addressed instance cache lookups observed by this recorder
	// (populated on peer processes, not the coordinator).
	InstanceCacheHits   int `json:"instance_cache_hits,omitempty"`
	InstanceCacheMisses int `json:"instance_cache_misses,omitempty"`
}

// IterationTiming is one row of Report.Iterations.
type IterationTiming struct {
	Iteration           int     `json:"iteration"`
	InitSeconds         float64 `json:"init_seconds,omitempty"`
	VertexSeconds       float64 `json:"vertex_seconds,omitempty"`
	EdgeSeconds         float64 `json:"edge_seconds,omitempty"`
	GatherSeconds       float64 `json:"gather_seconds,omitempty"`
	ProtocolSeconds     float64 `json:"protocol_seconds,omitempty"`
	MaxChunkSeconds     float64 `json:"max_chunk_seconds,omitempty"`
	BoundaryWaitSeconds float64 `json:"boundary_wait_seconds,omitempty"`
	CoverageWaitSeconds float64 `json:"coverage_wait_seconds,omitempty"`
}

// PeerStats is one row of Report.Peers.
type PeerStats struct {
	Peer           string  `json:"peer"`
	Exchanges      int     `json:"exchanges"`
	WaitSeconds    float64 `json:"wait_seconds"`
	MaxWaitSeconds float64 `json:"max_wait_seconds"`
	FramesSent     int64   `json:"frames_sent"`
	FramesReceived int64   `json:"frames_received"`
	BytesSent      int64   `json:"bytes_sent"`
	BytesReceived  int64   `json:"bytes_received"`
}

// Report snapshots the accumulated data. Safe to call while hooks are
// still arriving; a Start without a matching Stop contributes its
// in-flight elapsed time.
func (r *Recorder) Report() *Report {
	r.mu.Lock()
	defer r.mu.Unlock()
	rep := &Report{
		TraceID:             r.traceID,
		Engine:              r.engine,
		TotalSeconds:        r.total.Seconds(),
		Rounds:              r.rounds,
		Messages:            r.messages,
		InstanceCacheHits:   r.cacheHits,
		InstanceCacheMisses: r.cacheMisses,
	}
	if r.running {
		rep.TotalSeconds += time.Since(r.start).Seconds()
	}
	if len(r.phase) > 0 {
		rep.PhaseSeconds = make(map[string]float64, len(r.phase))
		for k, v := range r.phase {
			rep.PhaseSeconds[k] = v.Seconds()
		}
	}
	for _, it := range r.iters {
		if !it.seen {
			continue
		}
		rep.Iterations = append(rep.Iterations, IterationTiming{
			Iteration:           it.iteration,
			InitSeconds:         it.initD.Seconds(),
			VertexSeconds:       it.vertexD.Seconds(),
			EdgeSeconds:         it.edgeD.Seconds(),
			GatherSeconds:       it.gatherD.Seconds(),
			ProtocolSeconds:     it.protocolD.Seconds(),
			MaxChunkSeconds:     it.maxChunkD.Seconds(),
			BoundaryWaitSeconds: it.boundaryWaitD.Seconds(),
			CoverageWaitSeconds: it.covWaitD.Seconds(),
		})
	}
	names := make([]string, 0, len(r.peers))
	for name := range r.peers {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		p := r.peers[name]
		rep.Peers = append(rep.Peers, PeerStats{
			Peer:           name,
			Exchanges:      p.exchanges,
			WaitSeconds:    p.waitD.Seconds(),
			MaxWaitSeconds: p.maxWait.Seconds(),
			FramesSent:     p.framesSent,
			FramesReceived: p.framesRecv,
			BytesSent:      p.bytesSent,
			BytesReceived:  p.bytesRecv,
		})
	}
	return rep
}
