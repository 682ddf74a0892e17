// Package hypergraph provides the weighted-hypergraph substrate used by the
// distributed covering algorithms: immutable hypergraph values, incidence
// lookups, instance statistics (rank f, maximum degree Δ, weight spread W),
// vertex-cover predicates, generators for synthetic workloads, and JSON
// serialization.
//
// A hypergraph G = (V, E) has positive integer vertex weights w(v). Each
// hyperedge is a non-empty set of distinct vertices. The rank f of G is the
// maximum edge cardinality, and the degree of a vertex is the number of
// incident edges; Δ is the maximum degree. These are exactly the quantities
// the round bounds in Ben-Basat et al., "Optimal Distributed Covering
// Algorithms" (PODC 2019), are stated in.
//
// # Storage layout
//
// Hypergraphs are stored in CSR (compressed sparse row) form: one flat
// vertex array per direction plus an offset array, instead of a slice of
// slices. Edge e's vertices are edgeVerts[edgeOff[e]:edgeOff[e+1]] and
// vertex v's incident edges are incEdges[incOff[v]:incOff[v+1]]. The flat
// layout is what lets the solvers stream over all incidences with
// sequential memory access — the per-edge/per-vertex phases of the
// algorithm are linear passes over these arrays — and makes the memory
// footprint of an instance a closed-form function of the array lengths
// (see MemoryBytes).
//
// # Decoding
//
// UnmarshalJSON, and with it ReadFrom, decodes in one pass straight into
// the CSR arrays: a byte scanner counts the weights, edges and edge entries
// to size the arrays exactly, then fills them, sorting and deduplicating
// each edge in place. The scanner takes only the plain shape — an object
// with "weights" and "edges" at most once each, in either order, holding
// integer literals, with whitespace anywhere — and only valid instances.
// Every other input falls back to the encoding/json decoder, which decides
// the outcome and words the error; a fuzz target holds the two to the same
// answers.
//
// # Canonical hash
//
// Hash digests a canonical encoding of the instance: the weights, then the
// edges in lexicographic order, each as its size and its vertices in
// uvarints. A graph built by Extend keeps the edge part of that encoding,
// its canonical edge stream, as a list of immutable chunks of about 4 KB.
// Extend rebuilds only the chunks a delta's edges fall into and shares
// every other chunk with its base, so hashing an extended graph is one
// SHA-256 pass over bytes that already exist. Decoded and built graphs
// carry no stream: they encode their edges on the fly when hashed and
// retain nothing.
package hypergraph

import (
	"fmt"
	"slices"
	"sort"
)

// VertexID identifies a vertex. Vertices are numbered 0..NumVertices-1.
type VertexID int

// EdgeID identifies a hyperedge. Edges are numbered 0..NumEdges-1.
type EdgeID int

// Hypergraph is an immutable weighted hypergraph in CSR layout. Construct
// one with a Builder or a generator; the zero value is an empty hypergraph.
type Hypergraph struct {
	weights []int64 // weights[v] > 0

	// Edge CSR: edge e covers edgeVerts[edgeOff[e]:edgeOff[e+1]], sorted
	// distinct vertex ids. len(edgeOff) == NumEdges()+1 (nil when empty).
	edgeOff   []int
	edgeVerts []VertexID

	// Incidence CSR: vertex v is in edges incEdges[incOff[v]:incOff[v+1]],
	// ascending edge ids. len(incOff) == NumVertices()+1 (nil when empty).
	incOff   []int
	incEdges []EdgeID

	rank      int // max |edges[e]|, 0 if no edges
	maxDegree int // max |incidence[v]|, 0 if no edges

	// stream is the canonical edge encoding Hash digests, nil unless
	// Extend built this graph: the edges' encodings in canonical order,
	// cut into chunks of about chunkTarget bytes, never inside an edge.
	// Each chunk is cap-limited and never written after it is built, so
	// graphs along an extension tree share chunks freely.
	stream [][]byte
	// extended guards the spare capacity behind weights/edgeOff/edgeVerts:
	// the first Extend from this graph claims it with a CAS and may append
	// in place (the base graph only ever reads indices below its lengths);
	// later Extends from the same base copy. Accessed atomically.
	extended uint32
}

// NumVertices returns |V|.
func (g *Hypergraph) NumVertices() int { return len(g.weights) }

// NumEdges returns |E|.
func (g *Hypergraph) NumEdges() int {
	if len(g.edgeOff) == 0 {
		return 0
	}
	return len(g.edgeOff) - 1
}

// Weight returns w(v).
func (g *Hypergraph) Weight(v VertexID) int64 { return g.weights[v] }

// Weights returns a copy of the weight vector.
func (g *Hypergraph) Weights() []int64 {
	out := make([]int64, len(g.weights))
	copy(out, g.weights)
	return out
}

// Edge returns the vertices of edge e as a view into the graph's shared CSR
// arena. The returned slice must not be modified, and it is invalidated by
// Extend: an extension may claim the arena and append into the same backing
// array, so a view retained across an Extend aliases storage that now
// belongs to the extended graph. Use the view immediately, or copy it with
// EdgeCopy if it must outlive the next Extend.
func (g *Hypergraph) Edge(e EdgeID) []VertexID {
	a, b := g.edgeOff[e], g.edgeOff[e+1]
	return g.edgeVerts[a:b:b]
}

// EdgeCopy returns a fresh copy of the vertices of edge e; safe to retain.
func (g *Hypergraph) EdgeCopy(e EdgeID) []VertexID {
	return append([]VertexID(nil), g.Edge(e)...)
}

// Incident returns the edges containing v as a view into the graph's shared
// CSR arena, ascending. The same aliasing contract as Edge applies: the
// view must not be modified and is invalidated by Extend — copy with
// IncidentCopy to retain it across one.
func (g *Hypergraph) Incident(v VertexID) []EdgeID {
	a, b := g.incOff[v], g.incOff[v+1]
	return g.incEdges[a:b:b]
}

// IncidentCopy returns a fresh copy of the edges containing v; safe to
// retain.
func (g *Hypergraph) IncidentCopy(v VertexID) []EdgeID {
	return append([]EdgeID(nil), g.Incident(v)...)
}

// Degree returns |E(v)|, the number of edges containing v.
func (g *Hypergraph) Degree(v VertexID) int { return g.incOff[v+1] - g.incOff[v] }

// IncidenceOffsets returns the incidence CSR offset array as a read-only
// view: vertex v's incident edges occupy positions [off[v], off[v+1]) of
// the incidence array. len(off) == NumVertices()+1, or 0 for the
// zero-value graph. The Incident aliasing contract applies: do not modify,
// do not retain across an Extend.
func (g *Hypergraph) IncidenceOffsets() []int {
	return g.incOff[:len(g.incOff):len(g.incOff)]
}

// EdgeSize returns |e|.
func (g *Hypergraph) EdgeSize(e EdgeID) int { return g.edgeOff[e+1] - g.edgeOff[e] }

// Rank returns f, the maximum edge cardinality (0 for an edgeless graph).
func (g *Hypergraph) Rank() int { return g.rank }

// MaxDegree returns Δ, the maximum vertex degree (0 for an edgeless graph).
func (g *Hypergraph) MaxDegree() int { return g.maxDegree }

// LocalMaxDegree returns Δ(e) = max over v in e of |E(v)|, the local maximum
// degree used when the multiplier α is chosen per edge (Theorem 9 remark).
func (g *Hypergraph) LocalMaxDegree(e EdgeID) int {
	d := 0
	for _, v := range g.Edge(e) {
		if dv := g.Degree(v); dv > d {
			d = dv
		}
	}
	return d
}

// MemoryBytes estimates the heap footprint of the instance from its array
// lengths: 8 bytes per id, offset and weight, plus the canonical edge
// stream of an extended graph (its chunk bytes and 24 bytes per entry of
// the chunk list). It deliberately counts lengths, not capacities: along a
// claimed extension chain spare capacity is shared between graphs, and
// charging it to every graph would double-count. Chunks shared with other
// graphs of an extension tree are counted in full by each of them. The
// coverd session registry uses this estimate for byte-budgeted eviction.
func (g *Hypergraph) MemoryBytes() int64 {
	words := len(g.weights) + len(g.edgeOff) + len(g.edgeVerts) +
		len(g.incOff) + len(g.incEdges) + 3*len(g.stream)
	bytes := 8 * words
	for _, c := range g.stream {
		bytes += len(c)
	}
	return int64(bytes)
}

// MinWeight returns min_v w(v), or 0 if there are no vertices.
func (g *Hypergraph) MinWeight() int64 {
	if len(g.weights) == 0 {
		return 0
	}
	m := g.weights[0]
	for _, w := range g.weights[1:] {
		if w < m {
			m = w
		}
	}
	return m
}

// MaxWeight returns max_v w(v), or 0 if there are no vertices.
func (g *Hypergraph) MaxWeight() int64 {
	m := int64(0)
	for _, w := range g.weights {
		if w > m {
			m = w
		}
	}
	return m
}

// WeightSpread returns W = max w / min w rounded up, the quantity prior
// algorithms' round bounds depend on. Returns 1 for empty graphs.
func (g *Hypergraph) WeightSpread() int64 {
	minW, maxW := g.MinWeight(), g.MaxWeight()
	if minW <= 0 {
		return 1
	}
	return (maxW + minW - 1) / minW
}

// TotalWeight returns Σ_v w(v).
func (g *Hypergraph) TotalWeight() int64 {
	var t int64
	for _, w := range g.weights {
		t += w
	}
	return t
}

// CoverWeight returns Σ_{v in cover} w(v). Vertices outside [0, n) are
// ignored; duplicates are counted once.
func (g *Hypergraph) CoverWeight(cover []VertexID) int64 {
	seen := make(map[VertexID]bool, len(cover))
	var t int64
	for _, v := range cover {
		if v < 0 || int(v) >= len(g.weights) || seen[v] {
			continue
		}
		seen[v] = true
		t += g.weights[v]
	}
	return t
}

// IsCover reports whether the given vertex set stabs every edge.
func (g *Hypergraph) IsCover(cover []VertexID) bool {
	in := make([]bool, len(g.weights))
	for _, v := range cover {
		if v >= 0 && int(v) < len(in) {
			in[v] = true
		}
	}
	for e, m := 0, g.NumEdges(); e < m; e++ {
		stabbed := false
		for _, v := range g.edgeVerts[g.edgeOff[e]:g.edgeOff[e+1]] {
			if in[v] {
				stabbed = true
				break
			}
		}
		if !stabbed {
			return false
		}
	}
	return true
}

// Clone returns a deep copy of g. The copy shares no storage with g, not
// even the chunks of its canonical edge stream, so it is unaffected by
// later extensions of g (and vice versa) and MemoryBytes charges it in
// full.
func (g *Hypergraph) Clone() *Hypergraph {
	h := &Hypergraph{
		weights:   append([]int64(nil), g.weights...),
		edgeOff:   append([]int(nil), g.edgeOff...),
		edgeVerts: append([]VertexID(nil), g.edgeVerts...),
		incOff:    append([]int(nil), g.incOff...),
		incEdges:  append([]EdgeID(nil), g.incEdges...),
		rank:      g.rank,
		maxDegree: g.maxDegree,
	}
	if g.stream != nil {
		h.stream = make([][]byte, len(g.stream))
		for i, c := range g.stream {
			h.stream[i] = slices.Clip(slices.Clone(c))
		}
	}
	return h
}

// String returns a short human-readable summary.
func (g *Hypergraph) String() string {
	return fmt.Sprintf("hypergraph{n=%d m=%d f=%d Δ=%d W=%d}",
		g.NumVertices(), g.NumEdges(), g.Rank(), g.MaxDegree(), g.WeightSpread())
}

// setEdgesFromRows fills the edge CSR from validated rows (sorted, distinct,
// in-range vertex ids).
func (g *Hypergraph) setEdgesFromRows(rows [][]VertexID) {
	total := 0
	for _, vs := range rows {
		total += len(vs)
	}
	g.edgeOff = make([]int, len(rows)+1)
	g.edgeVerts = make([]VertexID, 0, total)
	for i, vs := range rows {
		g.edgeVerts = append(g.edgeVerts, vs...)
		g.edgeOff[i+1] = len(g.edgeVerts)
	}
}

// buildIncidence computes the incidence CSR, rank and max degree from the
// edge CSR with one counting pass: a prefix-sum over per-vertex degrees
// carves incEdges, then a walk over the edges in ascending id order fills
// each vertex's range — already sorted, no per-vertex allocation.
func (g *Hypergraph) buildIncidence() {
	n := len(g.weights)
	m := g.NumEdges()
	g.rank = 0
	for e := 0; e < m; e++ {
		if sz := g.edgeOff[e+1] - g.edgeOff[e]; sz > g.rank {
			g.rank = sz
		}
	}
	counts := make([]int, n)
	for _, v := range g.edgeVerts {
		counts[v]++
	}
	g.incOff = make([]int, n+1)
	g.maxDegree = 0
	for v := 0; v < n; v++ {
		g.incOff[v+1] = g.incOff[v] + counts[v]
		if counts[v] > g.maxDegree {
			g.maxDegree = counts[v]
		}
	}
	g.incEdges = make([]EdgeID, len(g.edgeVerts))
	copy(counts, g.incOff[:n]) // counts now holds the write cursor per vertex
	for e := 0; e < m; e++ {
		for _, v := range g.edgeVerts[g.edgeOff[e]:g.edgeOff[e+1]] {
			g.incEdges[counts[v]] = EdgeID(e)
			counts[v]++
		}
	}
}

// sortedUnique returns a sorted copy of vs with duplicates removed.
func sortedUnique(vs []VertexID) []VertexID {
	out := append([]VertexID(nil), vs...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	k := 0
	for i, v := range out {
		if i == 0 || v != out[k-1] {
			out[k] = v
			k++
		}
	}
	return out[:k]
}
