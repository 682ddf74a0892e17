package hypergraph

import (
	"testing"
	"testing/quick"
)

func TestUniformRandomShape(t *testing.T) {
	tests := []struct {
		name    string
		n, m, f int
	}{
		{"graph", 50, 120, 2},
		{"rank3", 40, 80, 3},
		{"rank7", 30, 60, 7},
		{"single vertex edges", 10, 5, 1},
		{"f equals n", 5, 3, 5},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			g, err := UniformRandom(tt.n, tt.m, tt.f, GenConfig{Seed: 1})
			if err != nil {
				t.Fatalf("UniformRandom: %v", err)
			}
			if g.NumVertices() != tt.n {
				t.Errorf("n = %d, want %d", g.NumVertices(), tt.n)
			}
			if g.NumEdges() != tt.m {
				t.Errorf("m = %d, want %d", g.NumEdges(), tt.m)
			}
			for e := 0; e < g.NumEdges(); e++ {
				if g.EdgeSize(EdgeID(e)) != tt.f {
					t.Fatalf("edge %d size %d, want %d", e, g.EdgeSize(EdgeID(e)), tt.f)
				}
			}
			if err := Validate(g); err != nil {
				t.Errorf("Validate: %v", err)
			}
		})
	}
}

func TestUniformRandomInvalidParams(t *testing.T) {
	tests := []struct{ n, m, f int }{
		{0, 1, 1}, {5, 1, 0}, {5, 1, 6}, {5, -1, 2},
	}
	for _, tt := range tests {
		if _, err := UniformRandom(tt.n, tt.m, tt.f, GenConfig{}); err == nil {
			t.Errorf("UniformRandom(%d,%d,%d) succeeded, want error", tt.n, tt.m, tt.f)
		}
	}
}

func TestUniformRandomDeterministic(t *testing.T) {
	a, err := UniformRandom(30, 50, 3, GenConfig{Seed: 42, Dist: WeightUniformRange, MaxWeight: 100})
	if err != nil {
		t.Fatal(err)
	}
	b, err := UniformRandom(30, 50, 3, GenConfig{Seed: 42, Dist: WeightUniformRange, MaxWeight: 100})
	if err != nil {
		t.Fatal(err)
	}
	aj, _ := a.MarshalJSON()
	bj, _ := b.MarshalJSON()
	if string(aj) != string(bj) {
		t.Error("same seed produced different hypergraphs")
	}
	c, err := UniformRandom(30, 50, 3, GenConfig{Seed: 43, Dist: WeightUniformRange, MaxWeight: 100})
	if err != nil {
		t.Fatal(err)
	}
	cj, _ := c.MarshalJSON()
	if string(aj) == string(cj) {
		t.Error("different seeds produced identical hypergraphs (suspicious)")
	}
}

func TestRegularLikeDegreeBound(t *testing.T) {
	g, err := RegularLike(60, 6, 3, GenConfig{Seed: 7})
	if err != nil {
		t.Fatalf("RegularLike: %v", err)
	}
	for v := 0; v < g.NumVertices(); v++ {
		if d := g.Degree(VertexID(v)); d > 6 {
			t.Errorf("vertex %d degree %d exceeds d=6", v, d)
		}
	}
	if g.NumEdges() == 0 {
		t.Error("RegularLike produced no edges")
	}
	for e := 0; e < g.NumEdges(); e++ {
		if g.EdgeSize(EdgeID(e)) != 3 {
			t.Errorf("edge %d size %d, want 3", e, g.EdgeSize(EdgeID(e)))
		}
	}
}

func TestStar(t *testing.T) {
	g, err := Star(8, 3, 5)
	if err != nil {
		t.Fatalf("Star: %v", err)
	}
	if g.MaxDegree() != 8 {
		t.Errorf("Δ = %d, want 8", g.MaxDegree())
	}
	if g.Rank() != 3 {
		t.Errorf("f = %d, want 3", g.Rank())
	}
	if g.Degree(0) != 8 {
		t.Errorf("center degree = %d, want 8", g.Degree(0))
	}
	if !g.IsCover([]VertexID{0}) {
		t.Error("center alone should cover a star")
	}
	if g.Weight(0) != 5 {
		t.Errorf("center weight = %d, want 5", g.Weight(0))
	}
}

func TestCompleteGraph(t *testing.T) {
	g, err := CompleteGraph(6)
	if err != nil {
		t.Fatalf("CompleteGraph: %v", err)
	}
	if g.NumEdges() != 15 {
		t.Errorf("m = %d, want 15", g.NumEdges())
	}
	if g.MaxDegree() != 5 {
		t.Errorf("Δ = %d, want 5", g.MaxDegree())
	}
	// Any n-1 vertices cover K_n; any fewer do not.
	cover := []VertexID{0, 1, 2, 3, 4}
	if !g.IsCover(cover) {
		t.Error("n-1 vertices should cover K_n")
	}
	if g.IsCover(cover[:4]) {
		t.Error("n-2 vertices cannot cover K_n")
	}
}

func TestSetCoverInstance(t *testing.T) {
	// Elements {0,1,2}; sets: {0,1} cost 3, {1,2} cost 4, {2} cost 1.
	g, err := SetCoverInstance(3, [][]int{{0, 1}, {1, 2}, {2}}, []int64{3, 4, 1})
	if err != nil {
		t.Fatalf("SetCoverInstance: %v", err)
	}
	if g.NumVertices() != 3 || g.NumEdges() != 3 {
		t.Fatalf("shape = (%d,%d), want (3,3)", g.NumVertices(), g.NumEdges())
	}
	// Element 1 is covered by sets 0 and 1, so edge 1 = {0,1}.
	e := g.Edge(1)
	if len(e) != 2 || e[0] != 0 || e[1] != 1 {
		t.Errorf("edge for element 1 = %v, want [0 1]", e)
	}
	// Frequency of element = edge size; max frequency = rank.
	if g.Rank() != 2 {
		t.Errorf("rank = %d, want 2 (max element frequency)", g.Rank())
	}
	if !g.IsCover([]VertexID{0, 2}) {
		t.Error("sets {0,2} should cover all elements")
	}
}

func TestSetCoverInstanceErrors(t *testing.T) {
	if _, err := SetCoverInstance(2, [][]int{{0}}, []int64{1}); err == nil {
		t.Error("uncovered element accepted")
	}
	if _, err := SetCoverInstance(1, [][]int{{0}, {0}}, []int64{1}); err == nil {
		t.Error("sets/costs length mismatch accepted")
	}
	if _, err := SetCoverInstance(1, [][]int{{5}}, []int64{1}); err == nil {
		t.Error("out-of-range element accepted")
	}
}

func TestWeightDistributions(t *testing.T) {
	tests := []struct {
		name string
		dist WeightDist
		maxW int64
	}{
		{"unit", WeightUniformOne, 1},
		{"uniform", WeightUniformRange, 1000},
		{"exponential", WeightExponential, 1 << 20},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			g, err := UniformRandom(200, 100, 2, GenConfig{Seed: 9, Dist: tt.dist, MaxWeight: tt.maxW})
			if err != nil {
				t.Fatal(err)
			}
			if g.MinWeight() < 1 {
				t.Errorf("min weight %d < 1", g.MinWeight())
			}
			if g.MaxWeight() > tt.maxW {
				t.Errorf("max weight %d > %d", g.MaxWeight(), tt.maxW)
			}
		})
	}
}

// Property: every generated hypergraph passes Validate and its stats are
// internally consistent.
func TestGeneratedInstancesAlwaysValid(t *testing.T) {
	prop := func(seed int64, nRaw, mRaw, fRaw uint8) bool {
		n := int(nRaw%40) + 2
		f := int(fRaw%5) + 1
		if f > n {
			f = n
		}
		m := int(mRaw % 60)
		g, err := UniformRandom(n, m, f, GenConfig{Seed: seed, Dist: WeightUniformRange, MaxWeight: 50})
		if err != nil {
			return false
		}
		if Validate(g) != nil {
			return false
		}
		if m > 0 && (g.Rank() > f || g.MaxDegree() > m) {
			return false
		}
		// Sum of degrees equals sum of edge sizes.
		sumDeg, sumSize := 0, 0
		for v := 0; v < g.NumVertices(); v++ {
			sumDeg += g.Degree(VertexID(v))
		}
		for e := 0; e < g.NumEdges(); e++ {
			sumSize += g.EdgeSize(EdgeID(e))
		}
		return sumDeg == sumSize
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
