package hypergraph

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/bits"
	"slices"
)

// hashDomain versions the canonical encoding; bump it if the encoding
// below ever changes so stale cache keys cannot collide across versions.
const hashDomain = "distcover/hypergraph/v1\n"

// chunkTarget is the chunk size of the canonical edge stream. A fresh
// stream is cut after the edge that brings a chunk to chunkTarget bytes;
// insertions grow chunks, and Extend splits one that passes 2×chunkTarget.
const chunkTarget = 4096

// Hash returns a canonical content hash of the hypergraph: a hex-encoded
// SHA-256 over a normalized binary encoding of the weights and edges.
//
// The encoding is canonical in the sense that it identifies the instance
// as a mathematical object, not a byte layout: vertices within an edge are
// sorted (the Builder already stores them sorted and deduplicated) and the
// edge list itself is hashed in lexicographic order, so two instances that
// list the same edges in different orders hash identically. Any cover and
// dual certificate valid for one is valid for the other, which makes the
// hash a sound cache key for solver results.
//
// A graph built by Extend carries its canonical edge stream, the exact
// bytes hashed after the edge count, and hashes it in one SHA-256 pass.
// Any other graph is hashed by encoding its edges in canonical order on
// the fly, and retains nothing.
func (g *Hypergraph) Hash() string {
	h := sha256.New()
	// The varints go to the digest in blocks: one Write per value costs
	// more than the hashing itself.
	buf := append(make([]byte, 0, 4096), hashDomain...)
	put := func(x uint64) {
		if len(buf) > cap(buf)-binary.MaxVarintLen64 {
			h.Write(buf)
			buf = buf[:0]
		}
		buf = binary.AppendUvarint(buf, x)
	}
	put(uint64(len(g.weights)))
	for _, w := range g.weights {
		put(uint64(w))
	}
	put(uint64(g.NumEdges()))
	if g.stream != nil {
		h.Write(buf)
		for _, c := range g.stream {
			h.Write(c)
		}
	} else {
		for _, e := range g.canonicalOrder() {
			vs := g.Edge(EdgeID(e))
			if len(buf) > cap(buf)-(1+len(vs))*binary.MaxVarintLen64 {
				h.Write(buf)
				buf = buf[:0]
			}
			buf = appendEdge(buf, vs)
		}
		h.Write(buf)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// appendEdge appends the canonical encoding of one edge to dst: its size,
// then its vertices, each as a uvarint. Hash and the edge stream share it.
func appendEdge(dst []byte, vs []VertexID) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(vs)))
	for _, v := range vs {
		dst = binary.AppendUvarint(dst, uint64(v))
	}
	return dst
}

// encodedLen returns len(appendEdge(nil, vs)).
func encodedLen(vs []VertexID) int {
	n := uvarintLen(uint64(len(vs)))
	for _, v := range vs {
		n += uvarintLen(uint64(v))
	}
	return n
}

func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// sortsBefore reports whether vs sorts strictly before the edge encoded
// at the front of p, in canonical order, and returns that edge's encoded
// length. It decodes only the vertices the comparison needs and skips the
// rest; p holds stream bytes, which appendEdge wrote, so it is never
// malformed.
func sortsBefore(vs []VertexID, p []byte) (bool, int) {
	k, n := binary.Uvarint(p)
	before := len(vs) < int(k) // the order if one edge is a prefix of the other
	i := 0
	for ; i < int(k) && i < len(vs); i++ {
		v, w := binary.Uvarint(p[n:])
		n += w
		if VertexID(v) != vs[i] {
			before = vs[i] < VertexID(v)
			i++
			break
		}
	}
	for ; i < int(k); i++ {
		for p[n] >= 0x80 {
			n++
		}
		n++
	}
	return before, n
}

// buildStream encodes every edge in canonical order into a fresh stream
// cut at chunkTarget. Extend calls it on a base graph that has none.
func (g *Hypergraph) buildStream() [][]byte {
	size := 0
	for e := range g.NumEdges() {
		size += encodedLen(g.Edge(EdgeID(e)))
	}
	data := make([]byte, 0, size)
	for _, e := range g.canonicalOrder() {
		data = appendEdge(data, g.Edge(EdgeID(e)))
	}
	return appendCut(nil, data, chunkTarget)
}

// appendCut appends data, the encodings of consecutive edges, to stream
// as chunks: each is cut after the edge that brings it to limit bytes,
// the last takes what remains, and each gets its own exact allocation.
func appendCut(stream [][]byte, data []byte, limit int) [][]byte {
	start := 0
	for p := 0; p < len(data); {
		_, size := sortsBefore(nil, data[p:]) // only the length is wanted
		p += size
		if p-start >= limit || p == len(data) {
			stream = append(stream, slices.Clip(slices.Clone(data[start:p])))
			start = p
		}
	}
	return stream
}

// canonicalOrder returns every edge id in canonical order: lexicographic
// by the (already sorted) vertex lists, shorter prefixes first. A counting
// pass buckets the edges by their first, smallest, vertex, and only the
// edges inside one bucket are compared; on most inputs a bucket holds a
// handful. Equal edges may come out in another order than one comparison
// sort over all edges would give, which the hash cannot see.
func (g *Hypergraph) canonicalOrder() []int {
	m := g.NumEdges()
	// Count, prefix-sum, scatter: next[v] ends as the end of bucket v.
	next := make([]int, len(g.weights)+1)
	for e := 0; e < m; e++ {
		next[g.edgeVerts[g.edgeOff[e]]+1]++
	}
	for v := 1; v < len(next); v++ {
		next[v] += next[v-1]
	}
	order := make([]int, m)
	for e := 0; e < m; e++ {
		first := g.edgeVerts[g.edgeOff[e]]
		order[next[first]] = e
		next[first]++
	}
	start := 0
	for _, end := range next[:len(g.weights)] {
		g.sortEdges(order[start:end])
		start = end
	}
	return order
}

// sortEdges puts edge ids in canonical order. A bucket is usually a few
// edges, which insertion sort orders without allocating; one vertex can
// lead many edges, though (the centre of a star), and those buckets get a
// comparison sort, so no input makes the order quadratic.
func (g *Hypergraph) sortEdges(ids []int) {
	if len(ids) > 12 {
		slices.SortFunc(ids, func(a, b int) int {
			return slices.Compare(g.Edge(EdgeID(a)), g.Edge(EdgeID(b)))
		})
		return
	}
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && edgeLexLess(g.Edge(EdgeID(ids[j])), g.Edge(EdgeID(ids[j-1]))); j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
}

// edgeLexLess is the canonical edge comparator: lexicographic on the sorted
// vertex lists, shorter prefixes first. It is the order slices.Compare
// gives; on a few edges it is the faster of the two.
func edgeLexLess(a, b []VertexID) bool {
	for k := 0; k < len(a) && k < len(b); k++ {
		if a[k] != b[k] {
			return a[k] < b[k]
		}
	}
	return len(a) < len(b)
}

// canonicalEdgeOrder returns the edge ids start..end-1 sorted
// lexicographically by their (already sorted) vertex lists, with shorter
// prefixes first. Extend sorts the new suffix with it.
func (g *Hypergraph) canonicalEdgeOrder(start, end int) []int {
	order := make([]int, end-start)
	for i := range order {
		order[i] = start + i
	}
	slices.SortFunc(order, func(a, b int) int {
		return slices.Compare(g.Edge(EdgeID(a)), g.Edge(EdgeID(b)))
	})
	return order
}
