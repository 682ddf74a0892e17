package hypergraph

import (
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"
)

// randomEdges returns k random edges over vertices lo..hi-1 with 1..maxSize
// entries each, unsorted and possibly repeating a vertex, as callers of
// Extend may pass them.
func randomEdges(rng *rand.Rand, lo, hi, k, maxSize int) [][]VertexID {
	edges := make([][]VertexID, k)
	for i := range edges {
		for j := 1 + rng.Intn(maxSize); j > 0; j-- {
			edges[i] = append(edges[i], VertexID(lo+rng.Intn(hi-lo)))
		}
	}
	return edges
}

func randomWeights(rng *rand.Rand, n int) []int64 {
	w := make([]int64, n)
	for v := range w {
		w[v] = 1 + rng.Int63n(100)
	}
	return w
}

// rebuildHash is the hash of a from-scratch build of o's instance.
func (o *oracle) rebuildHash() string { return MustNew(o.weights, o.edges).Hash() }

// decodeChunk decodes a chunk's bytes into its edges and their encoded
// sizes, independently of the package's own comparator.
func decodeChunk(t *testing.T, data []byte) (edges [][]VertexID, sizes []int) {
	t.Helper()
	for p := 0; p < len(data); {
		start := p
		k, n := binary.Uvarint(data[p:])
		if n <= 0 {
			t.Fatalf("malformed edge size at byte %d", p)
		}
		p += n
		var e []VertexID
		for ; k > 0; k-- {
			v, n := binary.Uvarint(data[p:])
			if n <= 0 {
				t.Fatalf("malformed vertex at byte %d", p)
			}
			p += n
			e = append(e, VertexID(v))
		}
		edges = append(edges, e)
		sizes = append(sizes, p-start)
	}
	return edges, sizes
}

// requireStream checks the canonical edge stream of an extended graph:
// every chunk is cap-limited, holds at least one edge and at most
// 2×chunkTarget bytes plus one edge; the chunks together decode to the
// graph's edges in canonical order; and MemoryBytes charges the chunk
// bytes and the chunk list.
func requireStream(t *testing.T, label string, g *Hypergraph) {
	t.Helper()
	if g.NumEdges() > 0 && g.stream == nil {
		t.Fatalf("%s: extended graph with %d edges has no stream", label, g.NumEdges())
	}
	var all [][]VertexID
	streamBytes := 0
	for i, c := range g.stream {
		if cap(c) != len(c) {
			t.Fatalf("%s: chunk %d has spare capacity %d", label, i, cap(c)-len(c))
		}
		edges, sizes := decodeChunk(t, c)
		if len(edges) == 0 {
			t.Fatalf("%s: chunk %d is empty", label, i)
		}
		if largest := slices.Max(sizes); len(c) > 2*chunkTarget+largest {
			t.Fatalf("%s: chunk %d holds %d bytes (largest edge %d)", label, i, len(c), largest)
		}
		all = append(all, edges...)
		streamBytes += len(c)
	}
	want := make([][]VertexID, g.NumEdges())
	for e := range want {
		want[e] = g.Edge(EdgeID(e))
	}
	slices.SortFunc(want, slices.Compare)
	if !slices.EqualFunc(all, want, slices.Equal) {
		t.Fatalf("%s: stream does not decode to the edges in canonical order", label)
	}
	csr := 8 * (len(g.weights) + len(g.edgeOff) + len(g.edgeVerts) + len(g.incOff) + len(g.incEdges))
	if want := int64(csr + streamBytes + 24*len(g.stream)); g.MemoryBytes() != want {
		t.Fatalf("%s: MemoryBytes %d, want %d with the stream", label, g.MemoryBytes(), want)
	}
}

// TestExtendChainMatchesRebuild grows a 20k-edge base by 2,000 deltas of
// one vertex and ten edges, the shape of a session, so chunks are rebuilt
// many times and split. At checkpoints the hash must equal a from-scratch
// build's and the stream must keep its invariants.
func TestExtendChainMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const n0, m0, steps = 8000, 20000, 2000
	o := &oracle{}
	o.extend(randomWeights(rng, n0), randomEdges(rng, 0, n0, m0, 4))
	g := MustNew(o.weights, o.edges)
	chunks := 0
	for step := 1; step <= steps; step++ {
		addW := randomWeights(rng, 1)
		addE := randomEdges(rng, 0, len(o.weights)+1, 10, 4)
		h, err := g.Extend(addW, addE)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		o.extend(addW, addE)
		if step == 1 {
			chunks = len(h.stream)
		}
		if step <= 3 || step%250 == 0 {
			requireStream(t, "chain", h)
			if got, want := h.Hash(), o.rebuildHash(); got != want {
				t.Fatalf("step %d: hash %s, rebuild %s", step, got, want)
			}
		}
		g = h
	}
	if len(g.stream) <= chunks {
		t.Fatalf("stream went from %d to %d chunks: no chunk was split", chunks, len(g.stream))
	}
}

// TestExtendSiblingsShareChunks extends one base twice and each child once
// more. The children share the base's untouched chunks, and every graph
// hashes to its rebuild whatever order the hashes are computed in.
func TestExtendSiblingsShareChunks(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	o := &oracle{}
	o.extend(randomWeights(rng, 3000), randomEdges(rng, 0, 3000, 6000, 3))
	type delta struct {
		w []int64
		e [][]VertexID
	}
	deltas := make([]delta, 4)
	for i := range deltas {
		deltas[i] = delta{randomWeights(rng, 1), randomEdges(rng, 0, 3001, 10, 3)}
	}
	// Family: 0 base, 1 and 2 its children, 3 a child of 1, 4 a child of 2.
	parents := []int{-1, 0, 0, 1, 2}
	want := []string{o.rebuildHash()}
	oracles := []*oracle{o}
	for i := 1; i < len(parents); i++ {
		p := oracles[parents[i]]
		c := &oracle{weights: append([]int64(nil), p.weights...), edges: append([][]VertexID(nil), p.edges...)}
		c.extend(deltas[i-1].w, deltas[i-1].e)
		oracles = append(oracles, c)
		want = append(want, c.rebuildHash())
	}
	build := func() []*Hypergraph {
		base, err := MustNew(o.weights, o.edges).Extend(nil, nil) // a base with a stream
		if err != nil {
			t.Fatal(err)
		}
		gs := []*Hypergraph{base}
		for i := 1; i < len(parents); i++ {
			g, err := gs[parents[i]].Extend(deltas[i-1].w, deltas[i-1].e)
			if err != nil {
				t.Fatal(err)
			}
			gs = append(gs, g)
		}
		return gs
	}
	gs := build()
	shared := 0
	for _, c := range gs[1].stream {
		for _, b := range gs[0].stream {
			if &c[0] == &b[0] {
				shared++
			}
		}
	}
	if shared == 0 || shared == len(gs[0].stream) {
		t.Fatalf("child shares %d of the base's %d chunks", shared, len(gs[0].stream))
	}
	orders := [][]int{{0, 1, 2, 3, 4}, {4, 3, 2, 1, 0}, {3, 4, 1, 2, 0}}
	for i := 0; i < 3; i++ {
		orders = append(orders, rng.Perm(len(parents)))
	}
	for _, order := range orders {
		gs := build()
		for _, i := range order {
			requireStream(t, "sibling", gs[i])
			if got := gs[i].Hash(); got != want[i] {
				t.Fatalf("order %v: graph %d hashes to %s, rebuild %s", order, i, got, want[i])
			}
		}
	}
}

// TestExtendStreamEdgeCases applies deltas at the stream's boundaries to
// bases with and without a stream: edges that sort before the first chunk
// or after the last, duplicates of existing edges (including the first
// edges of chunks), vertex-only and empty deltas, a rank-raising edge, and
// edges added to an edgeless base, enough of them to need a split.
func TestExtendStreamEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const n = 2000
	// Base edges avoid vertices 0 and n-1, so edges over those sort before
	// or after every base edge.
	o := &oracle{}
	o.extend(randomWeights(rng, n), randomEdges(rng, 1, n-1, 4000, 3))
	withStream, err := MustNew(o.weights, o.edges).Extend(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(withStream.stream) < 3 {
		t.Fatalf("base has %d chunks, want several", len(withStream.stream))
	}
	var dups [][]VertexID
	for _, c := range withStream.stream {
		edges, _ := decodeChunk(t, c)
		dups = append(dups, edges[0], edges[0])
	}
	dups = append(dups, o.edges[0], o.edges[len(o.edges)/2], o.edges[len(o.edges)-1])
	var many [][]VertexID
	for i := 0; i < 3000; i++ {
		many = append(many, []VertexID{VertexID(i % n), VertexID(n - 1)})
	}
	empty := &oracle{weights: randomWeights(rng, n)}
	cases := []struct {
		name  string
		base  *oracle
		addW  []int64
		addE  [][]VertexID
		check func(t *testing.T, g, h *Hypergraph)
	}{
		{name: "before first chunk", base: o, addE: [][]VertexID{{0}, {0, 5}, {0, 1, 2}}},
		{name: "after last chunk", base: o, addW: []int64{3}, addE: [][]VertexID{{n - 1}, {n, n - 1}, {n}}},
		{name: "both ends", base: o, addE: [][]VertexID{{n - 1}, {0}}},
		{name: "duplicates", base: o, addE: dups},
		{name: "vertex only", base: o, addW: []int64{4, 5}},
		{name: "empty", base: o, check: func(t *testing.T, g, h *Hypergraph) {
			if h.Hash() != g.Hash() {
				t.Fatal("an empty delta changed the hash")
			}
		}},
		{name: "rank raise", base: o, addE: [][]VertexID{{9, 3, 1700, 40, 2, 1999, 600}}, check: func(t *testing.T, g, h *Hypergraph) {
			if h.Rank() != 7 {
				t.Fatalf("rank %d, want 7", h.Rank())
			}
		}},
		{name: "edgeless base", base: empty, addE: [][]VertexID{{3, 1}, {0}}},
		{name: "edgeless base, split", base: empty, addE: many, check: func(t *testing.T, g, h *Hypergraph) {
			if len(h.stream) < 2 {
				t.Fatalf("%d chunks for %d edges", len(h.stream), h.NumEdges())
			}
		}},
		{name: "edgeless base, vertex only", base: empty, addW: []int64{1}},
	}
	for _, tc := range cases {
		for _, streamed := range []bool{false, true} {
			g, label := MustNew(tc.base.weights, tc.base.edges), tc.name
			if streamed {
				if g, err = g.Extend(nil, nil); err != nil {
					t.Fatal(err)
				}
				label += " (base with a stream)"
			}
			h, err := g.Extend(tc.addW, tc.addE)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			want := &oracle{weights: append([]int64(nil), tc.base.weights...), edges: append([][]VertexID(nil), tc.base.edges...)}
			want.extend(tc.addW, tc.addE)
			requireStream(t, label, h)
			if h.Hash() != want.rebuildHash() {
				t.Fatalf("%s: hash differs from the rebuild", label)
			}
			if tc.check != nil {
				tc.check(t, g, h)
			}
		}
	}
}

// TestCloneSharesNoChunks: a Clone deep-copies the stream, so it owns
// every chunk it is charged for.
func TestCloneSharesNoChunks(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	w, e := randomWeights(rng, 2000), randomEdges(rng, 0, 2000, 4000, 3)
	g, err := MustNew(w, e[:3000]).Extend(nil, e[3000:])
	if err != nil {
		t.Fatal(err)
	}
	c := g.Clone()
	if len(c.stream) != len(g.stream) || len(c.stream) < 2 {
		t.Fatalf("clone has %d chunks, source %d", len(c.stream), len(g.stream))
	}
	for i := range c.stream {
		if &c.stream[i][0] == &g.stream[i][0] {
			t.Fatalf("chunk %d shared between clone and source", i)
		}
	}
	requireStream(t, "clone", c)
	if c.Hash() != g.Hash() || c.MemoryBytes() != g.MemoryBytes() {
		t.Fatal("clone differs from its source")
	}
}
