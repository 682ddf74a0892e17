package hypergraph

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"slices"
	"sort"
)

// hashDomain versions the canonical encoding; bump it if the encoding
// below ever changes so stale cache keys cannot collide across versions.
const hashDomain = "distcover/hypergraph/v1\n"

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
	for _, e := range g.canonicalOrder() {
		vs := g.Edge(EdgeID(e))
		put(uint64(len(vs)))
		for _, v := range vs {
			put(uint64(v))
		}
	}
	h.Write(buf)
	return hex.EncodeToString(h.Sum(nil))
}

// canonicalOrder returns every edge id in canonical order: lexicographic
// by the (already sorted) vertex lists, shorter prefixes first. It is the
// order Extend maintains when there is one. Otherwise a counting pass
// buckets the edges by their first, smallest, vertex, and only the edges
// inside one bucket are compared; on most inputs a bucket holds a handful.
// Equal edges may come out in another order than one comparison sort over
// all edges would give, which the hash cannot see.
func (g *Hypergraph) canonicalOrder() []int {
	if g.canon != nil {
		return g.canon
	}
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

// canonicalEdgeOrder returns the edge ids start..end-1 sorted
// lexicographically by their (already sorted) vertex lists, with shorter
// prefixes first. Extend sorts the new suffix with it.
func (g *Hypergraph) canonicalEdgeOrder(start, end int) []int {
	order := make([]int, end-start)
	for i := range order {
		order[i] = start + i
	}
	sort.Slice(order, func(i, j int) bool {
		return edgeLexLess(g.Edge(EdgeID(order[i])), g.Edge(EdgeID(order[j])))
	})
	return order
}
