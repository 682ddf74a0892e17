package core

import (
	"errors"
	"fmt"
	"time"

	"distcover/internal/congest"
	"distcover/internal/hypergraph"
	"distcover/internal/telemetry"
)

// This file implements the Appendix B CONGEST execution of Algorithm MWHVC.
// The communication network is bipartite: vertex nodes 0..n-1 and edge
// nodes n..n+m-1, one link per incidence (Section 2). Vertices act on even
// rounds and edges on odd rounds, so one algorithm iteration costs exactly
// two CONGEST rounds after the two-round iteration 0:
//
//	round 0 (v→e): (w(v), |E(v)|)                      — O(log n) bits
//	round 1 (e→v): (w(ve), |E(ve)|, Δ(e))              — O(log n) bits
//	round 2i (v→e): "covered" | (level increments, raise/stuck)
//	round 2i+1 (e→v): "edge covered" | (halvings, raised bit)
//
// Both endpoints mirror bid(e) and δ(e) locally, so only increments and
// single bits cross links, as in the paper. The arithmetic is the same
// float64 code the lockstep runner uses; tests assert the two paths agree
// exactly, including summation order (ascending edge id everywhere).

// ErrExactCongest is returned when RunCongest is asked for exact
// arithmetic; the message protocol mirrors values as float64.
var ErrExactCongest = errors.New("core: exact arithmetic is not supported on the congest path")

// protoParams is the static configuration every node knows (the paper
// assumes f, ε and — for the global policy — Δ are common knowledge).
type protoParams struct {
	f          int
	eps        float64
	variant    Variant
	alpha      AlphaPolicy
	fixedAlpha float64
	gamma      float64
	delta      int // global Δ, for AlphaTheorem9
	// residual switches the init handshake to the warm-start messages that
	// carry vertex levels (incremental sessions, see residual.go). The
	// iteration phases are untouched.
	residual bool
}

// alphaFor resolves α for an edge whose local maximum degree is localDelta.
func (p *protoParams) alphaFor(localDelta int) float64 {
	switch p.alpha {
	case AlphaLocal:
		return AlphaTheorem9Value(p.f, p.eps, localDelta, p.gamma)
	case AlphaFixed:
		return p.fixedAlpha
	default:
		return AlphaTheorem9Value(p.f, p.eps, p.delta, p.gamma)
	}
}

// Protocol messages. Sizes follow the encodings discussed in Appendix B.

type msgVertexInfo struct {
	w, deg int64
}

func (m msgVertexInfo) Bits() int { return congest.IntBits(m.w) + congest.IntBits(m.deg) }

type msgEdgeInit struct {
	wMin, degMin int64
	localDelta   int64
}

func (m msgEdgeInit) Bits() int {
	return congest.IntBits(m.wMin) + congest.IntBits(m.degMin) + congest.IntBits(m.localDelta)
}

type msgVertexUpdate struct {
	inc   int64
	raise bool
}

func (m msgVertexUpdate) Bits() int { return congest.IntBits(m.inc) + 1 }

type msgVertexCovered struct{}

func (msgVertexCovered) Bits() int { return 1 }

type msgEdgeUpdate struct {
	halvings int64
	raised   bool
}

func (m msgEdgeUpdate) Bits() int { return congest.IntBits(m.halvings) + 1 }

type msgEdgeCovered struct{}

func (msgEdgeCovered) Bits() int { return 1 }

// Residual (warm-start) init messages: identical to msgVertexInfo and
// msgEdgeInit plus the vertex level implied by the carried dual load, so a
// new edge can size its first bid to the remaining slack bound w·2^{-ℓ}.
// Levels are O(log(1/β)) = O(log n) for the FApprox regime, so the messages
// stay within the CONGEST budget.

type msgVertexInfoRes struct {
	w, deg, level int64
}

func (m msgVertexInfoRes) Bits() int {
	return congest.IntBits(m.w) + congest.IntBits(m.deg) + congest.IntBits(m.level)
}

type msgEdgeInitRes struct {
	wMin, degMin, levelMin int64
	localDelta             int64
}

func (m msgEdgeInitRes) Bits() int {
	return congest.IntBits(m.wMin) + congest.IntBits(m.degMin) +
		congest.IntBits(m.levelMin) + congest.IntBits(m.localDelta)
}

// The zero-size announcements are boxed once; the per-step messages below
// are boxed once per step (a node sends the identical value on every link,
// so per-Send conversion would heap-allocate the same struct deg times —
// measurable GC pressure at million-node scale).
var (
	vertexCoveredMsg congest.Message = msgVertexCovered{}
	edgeCoveredMsg   congest.Message = msgEdgeCovered{}
)

// vertexNode is the server-side (hypergraph vertex) state machine.
type vertexNode struct {
	p   *protoParams
	num floatNumeric
	w   int64

	edges []congest.NodeID // incident edge nodes, ascending

	// Mirrors, indexed like edges.
	bid     []float64
	delta   []float64
	alphaE  []float64
	covered []bool

	level    int
	sumDelta float64
	sumBid   float64
	alphaV   float64
	uncov    int
	inCover  bool
	inited   bool
}

func (v *vertexNode) Step(round int, inbox []congest.Envelope, out *congest.Outbox) bool {
	if round%2 == 1 {
		return false // edges act on odd rounds
	}
	if round == 0 {
		if len(v.edges) == 0 {
			return true // isolated vertex: terminates with empty E'(v)
		}
		var info congest.Message
		if v.p.residual {
			info = msgVertexInfoRes{w: v.w, deg: int64(len(v.edges)), level: int64(v.level)}
		} else {
			info = msgVertexInfo{w: v.w, deg: int64(len(v.edges))}
		}
		for _, e := range v.edges {
			out.Send(e, info)
		}
		return false
	}
	v.processInbox(inbox)
	if !v.inited {
		// Init messages lost only if the graph is malformed; nothing to do.
		return v.uncov == 0
	}
	if v.uncov == 0 {
		return true // E'(v) = ∅: terminate without joining (step 3c)
	}
	// Step 3a: β-tight ⇔ (f+ε)·Σδ ≥ f·w.
	fPlusEps := float64(v.p.f) + v.p.eps
	if v.sumDelta*fPlusEps >= float64(v.p.f)*float64(v.w) {
		v.inCover = true
		for i, e := range v.edges {
			if !v.covered[i] {
				out.Send(e, vertexCoveredMsg)
			}
		}
		return true
	}
	// Step 3d: level increments.
	inc := 0
	wT := float64(v.w)
	for v.num.Add(v.sumDelta, v.num.HalfPow(wT, v.level+1)) > wT {
		v.level++
		inc++
	}
	// Step 3e: raise/stuck, seeing bids after own halvings only.
	view := v.num.HalfPow(v.sumBid, inc)
	raise := v.num.Mul(v.alphaV, view) <= v.num.HalfPow(wT, v.level+1)
	upd := congest.Message(msgVertexUpdate{inc: int64(inc), raise: raise})
	for i, e := range v.edges {
		if !v.covered[i] {
			out.Send(e, upd)
		}
	}
	return false
}

// processInbox applies edge reports: initial bids (round 1 output), covered
// notifications, and (halvings, raised) updates; then recomputes the
// uncovered-bid aggregate in ascending edge order to match the lockstep
// runner's float summation exactly.
//
// The inbox arrives sorted by sender id (the congest.Node contract) and
// v.edges is ascending, so a single merge walk resolves each sender to its
// mirror index — no per-vertex index map, no per-envelope map lookup.
func (v *vertexNode) processInbox(inbox []congest.Envelope) {
	if len(inbox) == 0 {
		return
	}
	j := 0
	for _, env := range inbox {
		for j < len(v.edges) && v.edges[j] < env.From {
			j++
		}
		if j == len(v.edges) {
			break
		}
		if v.edges[j] != env.From {
			continue // not an incident edge; ignore
		}
		i := j
		switch m := env.Msg.(type) {
		case msgEdgeInit:
			b := v.num.FromRatio(m.wMin, 2*m.degMin)
			v.bid[i] = b
			v.delta[i] = b
			v.sumDelta = v.num.Add(v.sumDelta, b)
			v.alphaE[i] = v.p.alphaFor(int(m.localDelta))
			v.inited = true
		case msgEdgeInitRes:
			b := v.num.HalfPow(v.num.FromRatio(m.wMin, 2*m.degMin), int(m.levelMin))
			v.bid[i] = b
			v.delta[i] = b
			v.sumDelta = v.num.Add(v.sumDelta, b)
			v.alphaE[i] = v.p.alphaFor(int(m.localDelta))
			v.inited = true
		case msgEdgeCovered:
			if !v.covered[i] {
				v.covered[i] = true
				v.uncov--
			}
		case msgEdgeUpdate:
			if m.halvings > 0 {
				v.bid[i] = v.num.HalfPow(v.bid[i], int(m.halvings))
			}
			if m.raised {
				v.bid[i] = v.num.Mul(v.bid[i], v.alphaE[i])
			}
			add := v.bid[i]
			if v.p.variant == VariantSingleLevel {
				add = v.num.HalfPow(add, 1)
			}
			v.delta[i] = v.num.Add(v.delta[i], add)
			v.sumDelta = v.num.Add(v.sumDelta, add)
		}
	}
	v.sumBid = 0
	v.alphaV = 2
	for i := range v.edges {
		if v.covered[i] {
			continue
		}
		v.sumBid = v.num.Add(v.sumBid, v.bid[i])
		if v.alphaE[i] > v.alphaV {
			v.alphaV = v.alphaE[i]
		}
	}
}

// edgeNode is the client-side (hyperedge) state machine.
type edgeNode struct {
	p   *protoParams
	num floatNumeric

	verts []congest.NodeID // member vertex nodes, ascending

	bid    float64
	delta  float64
	alphaE float64
	iters  int // edge phases executed (for Result.Iterations)
}

func (e *edgeNode) Step(round int, inbox []congest.Envelope, out *congest.Outbox) bool {
	if round%2 == 0 {
		return false // vertices act on even rounds
	}
	if round == 1 {
		return e.initPhase(inbox, out)
	}
	e.iters++
	covered := false
	var halvings int64
	allRaise := true
	for _, env := range inbox {
		switch m := env.Msg.(type) {
		case msgVertexCovered:
			covered = true
		case msgVertexUpdate:
			halvings += m.inc
			if !m.raise {
				allRaise = false
			}
		}
	}
	if covered {
		// Steps 3b: announce and terminate. Vertices that joined the cover
		// have already terminated; sends to them are dropped by the engine.
		for _, v := range e.verts {
			out.Send(v, edgeCoveredMsg)
		}
		return true
	}
	if halvings > 0 {
		e.bid = e.num.HalfPow(e.bid, int(halvings))
	}
	if allRaise {
		e.bid = e.num.Mul(e.bid, e.alphaE)
	}
	add := e.bid
	if e.p.variant == VariantSingleLevel {
		add = e.num.HalfPow(add, 1)
	}
	e.delta = e.num.Add(e.delta, add)
	upd := congest.Message(msgEdgeUpdate{halvings: halvings, raised: allRaise})
	for _, v := range e.verts {
		out.Send(v, upd)
	}
	return false
}

// initPhase runs iteration 0 on the edge side: collect (w, deg) from every
// member, pick the minimum normalized weight with the deterministic integer
// tie-break, set bid(e) = w(ve)/(2·|E(ve)|), and report it with the local
// maximum degree. In residual mode the reports additionally carry the
// members' warm-start levels and the bid shrinks to the level-discounted
// slack bound, ½·(w·2^{-ℓ})/deg (same argmin, same float operations as the
// lockstep warm start in runner.go).
func (e *edgeNode) initPhase(inbox []congest.Envelope, out *congest.Outbox) bool {
	// The inbox is sorted by sender (congest.Node contract) and e.verts is
	// ascending, so a merge walk pairs each member with its report; members
	// whose report is missing (malformed graphs only) count as (0, 0), as
	// the earlier materialized w/deg slices did. Tracking the running
	// argmin (ties to the lower vertex id = earlier position) and maximum
	// degree inline avoids allocating per-edge slices.
	var wBest, degBest, lvlBest, localDelta int64
	var costBest float64
	j := 0
	for i, v := range e.verts {
		var wi, di, li int64
		for j < len(inbox) && inbox[j].From < v {
			j++
		}
		if j < len(inbox) && inbox[j].From == v {
			switch m := inbox[j].Msg.(type) {
			case msgVertexInfo:
				wi, di = m.w, m.deg
			case msgVertexInfoRes:
				wi, di, li = m.w, m.deg, m.level
			}
		}
		if e.p.residual {
			cost := e.num.HalfPow(e.num.FromRatio(wi, di), int(li))
			if i == 0 || cost < costBest {
				wBest, degBest, lvlBest, costBest = wi, di, li, cost
			}
		} else if i == 0 || wi*degBest < wBest*di {
			// argmin w/deg by cross-multiplication, strict < keeps the first.
			wBest, degBest = wi, di
		}
		if di > localDelta {
			localDelta = di
		}
	}
	e.alphaE = e.p.alphaFor(int(localDelta))
	var init congest.Message
	if e.p.residual {
		e.bid = e.num.HalfPow(e.num.FromRatio(wBest, 2*degBest), int(lvlBest))
		init = msgEdgeInitRes{wMin: wBest, degMin: degBest, levelMin: lvlBest, localDelta: localDelta}
	} else {
		e.bid = e.num.FromRatio(wBest, 2*degBest)
		init = msgEdgeInit{wMin: wBest, degMin: degBest, localDelta: localDelta}
	}
	e.delta = e.bid
	for _, v := range e.verts {
		out.Send(v, init)
	}
	return false
}

// BuildNetwork constructs the bipartite CONGEST network for g: vertex nodes
// 0..n-1, edge nodes n..n+m-1, one link per incidence. It returns the
// network plus the node handles used to extract the result after a run.
//
// With a non-nil carry (a session's residual instance, residual.go), vertex
// node v is seeded with Σδ = carry[v] and the level that load implies, and
// the protocol switches to the residual init messages, which carry that
// level so edges can size their first bid to the remaining slack. The
// network then contains only the dirty part of a session, so under the
// sharded engine only the shards that received new work step at all.
func BuildNetwork(g *hypergraph.Hypergraph, opts Options, carry []float64) (*congest.Network, []*vertexNode, []*edgeNode, error) {
	if err := opts.validate(g); err != nil {
		return nil, nil, nil, err
	}
	if err := validateCarry(g, carry); err != nil {
		return nil, nil, nil, err
	}
	if opts.Exact {
		return nil, nil, nil, ErrExactCongest
	}
	p := &protoParams{
		f:          maxInt(g.Rank(), 1),
		eps:        opts.Epsilon,
		variant:    opts.Variant,
		alpha:      opts.Alpha,
		fixedAlpha: opts.FixedAlpha,
		gamma:      opts.Gamma,
		delta:      g.MaxDegree(),
		residual:   carry != nil,
	}
	n, m := g.NumVertices(), g.NumEdges()
	nw := congest.NewNetwork()

	// All per-incidence storage comes from shared arenas: one allocation per
	// kind instead of several per node, which at million-node scale is the
	// difference between a construction-bound and an execution-bound run.
	totalInc := 0
	for v := 0; v < n; v++ {
		totalInc += g.Degree(hypergraph.VertexID(v))
	}
	var (
		edgesArena   = make([]congest.NodeID, totalInc)
		bidArena     = make([]float64, totalInc)
		deltaArena   = make([]float64, totalInc)
		alphaArena   = make([]float64, totalInc)
		coveredArena = make([]bool, totalInc)
		vertsArena   = make([]congest.NodeID, 0, totalInc)
	)
	vnodes := make([]*vertexNode, n)
	vstructs := make([]vertexNode, n)
	off := 0
	for v := 0; v < n; v++ {
		k := g.Degree(hypergraph.VertexID(v))
		vn := &vstructs[v]
		*vn = vertexNode{
			p:       p,
			w:       g.Weight(hypergraph.VertexID(v)),
			edges:   edgesArena[off : off : off+k],
			bid:     bidArena[off : off+k : off+k],
			delta:   deltaArena[off : off+k : off+k],
			alphaE:  alphaArena[off : off+k : off+k],
			covered: coveredArena[off : off+k : off+k],
			uncov:   k,
		}
		if carry != nil {
			// Seed the carried load and derive the level with the step-3d
			// formula — the same float operations the lockstep warm start
			// performs, so both paths agree bit for bit.
			num := floatNumeric{}
			vn.sumDelta = carry[v]
			wf := float64(vn.w)
			for num.Add(vn.sumDelta, num.HalfPow(wf, vn.level+1)) > wf {
				vn.level++
			}
		}
		off += k
		vnodes[v] = vn
		nw.AddNode(vn)
		nw.Reserve(congest.NodeID(v), k)
	}
	enodes := make([]*edgeNode, m)
	estructs := make([]edgeNode, m)
	for e := 0; e < m; e++ {
		en := &estructs[e]
		en.p = p
		enodes[e] = en
		id := nw.AddNode(en)
		// g.Edge returns sorted distinct in-range vertex ids (guaranteed by
		// hypergraph.Builder), so the links are valid and duplicate-free by
		// construction and en.verts / vn.edges come out ascending (edge-node
		// ids increase with e) without sorting.
		vs := g.Edge(hypergraph.EdgeID(e))
		nw.Reserve(id, len(vs))
		start := len(vertsArena)
		for _, v := range vs {
			nw.ConnectTrusted(congest.NodeID(v), id)
			vertsArena = append(vertsArena, congest.NodeID(v))
			vnodes[v].edges = append(vnodes[v].edges, id)
		}
		en.verts = vertsArena[start:len(vertsArena):len(vertsArena)]
	}
	return nw, vnodes, enodes, nil
}

// RunCongest executes the protocol on the given engine, warm-started from
// carry when it is non-nil (see BuildNetwork), and returns the algorithm
// result together with the engine's CONGEST metrics. Results are identical
// to Run: both paths compute iteration 0 with the same float operations in
// the same order. A zero congestOpts gets the standard O(log(n+m)) bit
// budget and validation.
func RunCongest(g *hypergraph.Hypergraph, opts Options, carry []float64, eng congest.Engine, congestOpts congest.Options) (*Result, congest.Metrics, error) {
	nw, vnodes, enodes, err := BuildNetwork(g, opts, carry)
	if err != nil {
		return nil, congest.Metrics{}, err
	}
	return RunBuiltNetwork(g, opts, nw, vnodes, enodes, eng, congestOpts)
}

// RunBuiltNetwork executes a network previously constructed by BuildNetwork
// (networks are stateful: build a fresh one per run) and extracts the
// result. Callers that need to separate construction cost from engine
// execution — the throughput benchmarks — use the two-step form; everyone
// else goes through RunCongest.
func RunBuiltNetwork(g *hypergraph.Hypergraph, opts Options, nw *congest.Network,
	vnodes []*vertexNode, enodes []*edgeNode, eng congest.Engine, congestOpts congest.Options) (*Result, congest.Metrics, error) {
	if congestOpts.BitBudget == 0 {
		congestOpts.BitBudget = congest.LogBudget(nw.NumNodes())
	}
	if congestOpts.MaxRounds == 0 {
		congestOpts.MaxRounds = 4 * congest.DefaultMaxRounds
	}
	// The message engines have no phase boundaries to hook; telemetry gets
	// one protocol-level span plus the round/message totals.
	tr := opts.Tracer
	var t0 time.Time
	if tr != nil {
		t0 = time.Now()
	}
	metrics, err := eng.Run(nw, congestOpts)
	if tr != nil {
		tr.Phase(0, telemetry.PhaseProtocol, time.Since(t0), 0)
		tr.Protocol(metrics.Rounds, metrics.Messages)
	}
	if err != nil {
		return nil, metrics, fmt.Errorf("core: congest run: %w", err)
	}
	// Re-resolve derived parameters exactly as Run does.
	resolved := opts
	if err := resolved.validate(g); err != nil {
		return nil, metrics, err
	}
	res := &Result{
		Z:       ZLevels(maxInt(g.Rank(), 1), resolved.Epsilon),
		Epsilon: resolved.Epsilon,
		Rounds:  metrics.Rounds,
		InCover: make([]bool, g.NumVertices()),
		Dual:    make([]float64, g.NumEdges()),
	}
	if opts.Alpha != AlphaLocal {
		if opts.Alpha == AlphaFixed {
			res.Alpha = opts.FixedAlpha
		} else {
			res.Alpha = AlphaTheorem9Value(maxInt(g.Rank(), 1), resolved.Epsilon, g.MaxDegree(), resolved.Gamma)
		}
	}
	for v, vn := range vnodes {
		res.InCover[v] = vn.inCover
		if vn.level > res.MaxLevel {
			res.MaxLevel = vn.level
		}
	}
	for e, en := range enodes {
		res.Dual[e] = en.delta
		if en.iters > res.Iterations {
			res.Iterations = en.iters
		}
	}
	finish(g, res)
	return res, metrics, nil
}
