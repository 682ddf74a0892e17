package hypergraph

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
)

func mustBuild(t *testing.T, weights []int64, edges [][]VertexID) *Hypergraph {
	t.Helper()
	b := NewBuilder(len(weights), len(edges))
	for _, w := range weights {
		b.AddVertex(w)
	}
	for _, e := range edges {
		b.AddEdge(e...)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return g
}

func TestHashDeterministic(t *testing.T) {
	g := mustBuild(t, []int64{3, 1, 4}, [][]VertexID{{0, 1}, {1, 2}, {0, 2}})
	h1, h2 := g.Hash(), g.Hash()
	if h1 != h2 {
		t.Fatalf("hash not deterministic: %s vs %s", h1, h2)
	}
	if len(h1) != 64 {
		t.Fatalf("expected 64 hex chars, got %d (%s)", len(h1), h1)
	}
}

func TestHashRoundTripStable(t *testing.T) {
	g, err := UniformRandom(40, 80, 3, GenConfig{Seed: 7, MaxWeight: 50, Dist: WeightUniformRange})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := g.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadFrom(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g.Hash() != g2.Hash() {
		t.Fatalf("hash changed across JSON round trip: %s vs %s", g.Hash(), g2.Hash())
	}
}

func TestHashCanonicalization(t *testing.T) {
	base := mustBuild(t, []int64{5, 2, 8}, [][]VertexID{{0, 1}, {1, 2}})
	// Vertices permuted within an edge: Builder sorts, so hashes agree.
	permutedVerts := mustBuild(t, []int64{5, 2, 8}, [][]VertexID{{1, 0}, {2, 1}})
	if base.Hash() != permutedVerts.Hash() {
		t.Errorf("within-edge permutation changed the hash")
	}
	// Edges listed in a different order: canonical edge order makes them equal.
	permutedEdges := mustBuild(t, []int64{5, 2, 8}, [][]VertexID{{1, 2}, {0, 1}})
	if base.Hash() != permutedEdges.Hash() {
		t.Errorf("edge-order permutation changed the hash")
	}
}

func TestHashDistinguishesInstances(t *testing.T) {
	a := mustBuild(t, []int64{1, 1, 1}, [][]VertexID{{0, 1}})
	seen := map[string]string{a.Hash(): "base"}
	cases := map[string]*Hypergraph{
		"different weight": mustBuild(t, []int64{1, 2, 1}, [][]VertexID{{0, 1}}),
		"different edge":   mustBuild(t, []int64{1, 1, 1}, [][]VertexID{{0, 2}}),
		"extra edge":       mustBuild(t, []int64{1, 1, 1}, [][]VertexID{{0, 1}, {1, 2}}),
		"extra vertex":     mustBuild(t, []int64{1, 1, 1, 1}, [][]VertexID{{0, 1}}),
	}
	for name, g := range cases {
		h := g.Hash()
		if prev, ok := seen[h]; ok {
			t.Errorf("%s collides with %s", name, prev)
		}
		seen[h] = name
	}
}

// TestHashEmptyAndEdgeless covers degenerate shapes.
func TestHashEmptyAndEdgeless(t *testing.T) {
	edgeless := mustBuild(t, []int64{1, 2}, nil)
	if edgeless.Hash() == "" {
		t.Fatal("empty hash for edgeless graph")
	}
	other := mustBuild(t, []int64{2, 1}, nil)
	if edgeless.Hash() == other.Hash() {
		t.Fatal("weight order should matter (vertex ids are positional)")
	}
}

// TestCanonicalOrderMatchesComparisonSort checks the bucketed canonical
// order against one comparison sort over all edges on random graphs:
// small vertex ranges force duplicate edges, a hub vertex forces buckets
// past the insertion-sort size, and m=0 and n=0 are included. Among equal
// edges the ids may differ, so the edge sequences are compared.
func TestCanonicalOrderMatchesComparisonSort(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	graphs := []*Hypergraph{{}, mustBuild(t, nil, nil), mustBuild(t, []int64{1, 1}, nil)}
	for i := 0; i < 200; i++ {
		n := 1 + rng.Intn(30)
		weights := make([]int64, n)
		for v := range weights {
			weights[v] = 1
		}
		edges := make([][]VertexID, rng.Intn(80))
		for e := range edges {
			size := 1 + rng.Intn(min(n, 4))
			for len(edges[e]) < size {
				edges[e] = append(edges[e], VertexID(rng.Intn(n)))
			}
			if i%3 == 0 {
				edges[e][0] = 0 // one hub leads most edges
			}
		}
		graphs = append(graphs, mustBuild(t, weights, edges))
	}
	for i, g := range graphs {
		got := g.canonicalOrder()
		want := g.canonicalEdgeOrder(0, g.NumEdges())
		ids := slices.Clone(got)
		slices.Sort(ids)
		if len(ids) != g.NumEdges() {
			t.Fatalf("graph %d: order has %d ids, want %d", i, len(ids), g.NumEdges())
		}
		for k, e := range ids {
			if e != k {
				t.Fatalf("graph %d: order %v is not a permutation of the edge ids", i, got)
			}
		}
		for k := range want {
			if !slices.Equal(g.Edge(EdgeID(got[k])), g.Edge(EdgeID(want[k]))) {
				t.Fatalf("graph %d position %d: edge %v, want %v", i, k, g.Edge(EdgeID(got[k])), g.Edge(EdgeID(want[k])))
			}
		}
	}
}
