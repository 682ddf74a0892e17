package hypergraph

import (
	"fmt"
	"slices"
	"sort"
	"sync/atomic"
)

// Extend returns a new hypergraph equal to g plus addWeights appended
// vertices and addEdges appended hyperedges (referencing old and new
// vertices alike). g is unchanged and remains fully usable — but any Edge
// or Incident views taken from g before the call must be treated as
// invalidated (see the aliasing contract on those methods).
//
// Extend is built for incremental sessions, where it runs on every delta
// batch. On the CSR layout its cost is O(n + I + |Δ|) where I is the total
// incidence size — three flat array appends plus one counting-sort rebuild
// of the incidence CSR — with no per-vertex or per-edge allocations:
//
//   - The weight and edge arrays grow with headroom, and the first Extend
//     from a graph claims the spare capacity behind them (atomically), so a
//     linear chain of extensions appends in place instead of copying the
//     whole prefix every time. Branching extensions from one base remain
//     correct — later claimants fall back to copying.
//   - The incidence CSR cannot grow per vertex in place (an insertion in
//     the middle of a flat array would shift everything behind it), but new
//     edges carry ids larger than every existing edge, so each vertex's new
//     incidences belong at the *end* of its segment. extendIncidence
//     exploits that: the old array is block-copied run-by-run between
//     delta-touched vertices (long memmoves, no per-edge scatter) and only
//     the |Δ| new entries are placed individually. The fresh arrays also
//     guarantee the new graph's incidence shares nothing with the base,
//     which keeps MemoryBytes honest per graph.
//   - The canonical edge stream behind Hash (see stream) is maintained by
//     rebuilding only the chunks the new edges fall into; every other chunk
//     is shared with g. For C chunks and k new edges that costs
//     O(k·(log C + chunk size) + C). The first Extend from a graph without
//     a stream builds g's stream from scratch first.
func (g *Hypergraph) Extend(addWeights []int64, addEdges [][]VertexID) (*Hypergraph, error) {
	n := len(g.weights) + len(addWeights)
	m0 := g.NumEdges()
	for i, w := range addWeights {
		if w <= 0 {
			return nil, fmt.Errorf("%w: vertex %d has weight %d",
				ErrNonPositiveWeight, len(g.weights)+i, w)
		}
	}
	// Every new edge is sorted and deduplicated in place, as a cap-limited
	// window of one shared buffer.
	total := 0
	for _, e := range addEdges {
		total += len(e)
	}
	buf := make([]VertexID, 0, total)
	newEdges := make([][]VertexID, len(addEdges))
	addVerts := 0
	for i, e := range addEdges {
		start := len(buf)
		buf = append(buf, e...)
		slices.Sort(buf[start:])
		buf = buf[:start+len(slices.Compact(buf[start:]))]
		vs := buf[start:len(buf):len(buf)]
		if len(vs) == 0 {
			return nil, fmt.Errorf("%w: edge %d", ErrEmptyEdge, m0+i)
		}
		for _, v := range vs {
			if v < 0 || int(v) >= n {
				return nil, fmt.Errorf("%w: edge %d references vertex %d (n=%d)",
					ErrVertexRange, m0+i, v, n)
			}
		}
		newEdges[i] = vs
		addVerts += len(vs)
	}
	if m0+len(newEdges) > 0 && n == 0 {
		return nil, ErrNoVertices
	}

	h := &Hypergraph{}
	// Claim g's spare capacity if we are the first extension from it; the
	// in-place appends below only write beyond the base graph's lengths, so
	// every index the base can read stays untouched. Along a claim chain
	// every backing position beyond a graph's length is written by exactly
	// one descendant, so sharing stays sound.
	claimed := atomic.CompareAndSwapUint32(&g.extended, 0, 1)
	if claimed {
		h.weights = append(g.weights, addWeights...)
		h.edgeOff = g.edgeOff
		h.edgeVerts = g.edgeVerts
	} else {
		h.weights = append(growCopy(g.weights, len(addWeights)), addWeights...)
		h.edgeOff = growCopy(g.edgeOff, len(newEdges))
		h.edgeVerts = growCopy(g.edgeVerts, addVerts)
	}
	if len(h.edgeOff) == 0 {
		h.edgeOff = append(h.edgeOff, 0)
	}
	for _, vs := range newEdges {
		h.edgeVerts = append(h.edgeVerts, vs...)
		h.edgeOff = append(h.edgeOff, len(h.edgeVerts))
	}
	h.extendIncidence(g, newEdges)
	base := g.stream
	if base == nil {
		base = g.buildStream()
	}
	h.stream = h.extendStream(base, m0)
	return h, nil
}

// extendIncidence builds h's incidence CSR from the base graph's plus the
// validated new edges (already appended to h's edge CSR). New edge ids are
// larger than every base id and incidence lists are ascending, so a
// vertex's new entries extend the tail of its segment: old segments keep
// their internal layout and only shift by the growth of the touched
// vertices before them. The old array is therefore block-copied in runs
// between touched vertices — the per-edge counting-sort scatter of
// buildIncidence, the dominant cost of a small delta on a large instance,
// is paid only for the |Δ| new entries.
func (h *Hypergraph) extendIncidence(g *Hypergraph, newEdges [][]VertexID) {
	n := len(h.weights)
	n0 := len(g.weights) // touched vertices may include ids ≥ n0 (new vertices)
	m0 := g.NumEdges()
	h.rank = g.rank
	add := make([]int, n) // new incidences per vertex
	addVol := 0
	for _, vs := range newEdges {
		if len(vs) > h.rank {
			h.rank = len(vs)
		}
		addVol += len(vs)
		for _, v := range vs {
			add[v]++
		}
	}
	h.incOff = make([]int, n+1)
	h.maxDegree = g.maxDegree
	touched := make([]VertexID, 0, min(addVol, n)) // one alloc: ≤ one entry per new incidence
	for v := 0; v < n; v++ {
		d := add[v]
		if v < n0 {
			d += g.incOff[v+1] - g.incOff[v]
		}
		h.incOff[v+1] = h.incOff[v] + d
		if d > h.maxDegree {
			h.maxDegree = d
		}
		if add[v] > 0 {
			touched = append(touched, VertexID(v))
		}
	}
	h.incEdges = make([]EdgeID, h.incOff[n])
	// Copy the old array in runs: everything up to and including a touched
	// vertex's old segment lies contiguously in both arrays, offset by the
	// growth of the touched vertices already passed.
	src, dst := 0, 0
	for _, v := range touched {
		end := src
		if int(v) < n0 {
			end = g.incOff[v+1]
		} else if n0 > 0 {
			end = g.incOff[n0]
		}
		copy(h.incEdges[dst:], g.incEdges[src:end])
		dst += end - src + add[v] // skip the slots the scatter below fills
		src = end
	}
	if n0 > 0 {
		copy(h.incEdges[dst:], g.incEdges[src:g.incOff[n0]])
	}
	// Scatter the new entries, reusing add as the per-vertex write cursor:
	// ascending edge order keeps each tail ascending.
	for _, tv := range touched {
		add[tv] = h.incOff[tv+1] - add[tv]
	}
	for i, vs := range newEdges {
		e := EdgeID(m0 + i)
		for _, v := range vs {
			h.incEdges[add[v]] = e
			add[v]++
		}
	}
}

// growCopy copies s into a fresh slice with headroom for extra plus 25%,
// so a chain of copying extensions stays amortized linear.
func growCopy[T any](s []T, extra int) []T {
	out := make([]T, len(s), len(s)+extra+len(s)/4)
	copy(out, s)
	return out
}

// extendStream returns h's canonical edge stream: base, the stream of the
// graph h extends, with h's new edges m0.. merged in. A new edge goes into
// the last chunk whose first edge sorts at or before it (the first chunk if
// none does), found by binary search on first edges decoded from the
// bytes. Each touched chunk is rebuilt once by mergeChunk; the others, and
// the whole list when there are no new edges, are shared with base.
func (h *Hypergraph) extendStream(base [][]byte, m0 int) [][]byte {
	order := h.canonicalEdgeOrder(m0, h.NumEdges())
	if len(order) == 0 {
		return base
	}
	// before reports whether edge e sorts strictly before c's first edge.
	before := func(e int, c []byte) bool {
		b, _ := sortsBefore(h.Edge(EdgeID(e)), c)
		return b
	}
	stream := make([][]byte, 0, len(base)+1)
	next := 0 // first base chunk not yet in stream
	for i := 0; i < len(order); {
		// order is sorted, so the chunk of order[i] is at or after next.
		t := next
		if next < len(base) {
			t += sort.Search(len(base)-next-1, func(j int) bool { return before(order[i], base[next+1+j]) })
		}
		j := i + 1
		for j < len(order) && (t+1 >= len(base) || before(order[j], base[t+1])) {
			j++
		}
		stream = append(stream, base[next:min(t, len(base))]...)
		var old []byte // an empty base has no chunk to merge into
		if t < len(base) {
			old = base[t]
		}
		stream = h.mergeChunk(stream, old, order[i:j])
		next, i = t+1, j
	}
	return append(stream, base[min(next, len(base)):]...)
}

// mergeChunk rebuilds old with the new edges ids (in canonical order) merged
// in, in one fresh allocation of the exact size, and appends it to stream.
// If it outgrew 2×chunkTarget it is split evenly into ⌊size/chunkTarget⌋
// or so pieces, none but the last under chunkTarget bytes. Among equal
// edges the old ones come first; equal edges encode identically, so the
// bytes are the same either way.
func (h *Hypergraph) mergeChunk(stream [][]byte, old []byte, ids []int) [][]byte {
	size := len(old)
	for _, e := range ids {
		size += encodedLen(h.Edge(EdgeID(e)))
	}
	data := make([]byte, 0, size)
	rest := old
	for _, e := range ids {
		vs := h.Edge(EdgeID(e))
		run := 0 // bytes of the old edges that sort at or before vs
		for run < len(rest) {
			b, n := sortsBefore(vs, rest[run:])
			if b {
				break
			}
			run += n
		}
		data = appendEdge(append(data, rest[:run]...), vs)
		rest = rest[run:]
	}
	data = append(data, rest...)
	if len(data) <= 2*chunkTarget {
		return append(stream, data)
	}
	return appendCut(stream, data, len(data)/(len(data)/chunkTarget))
}
