package hypergraph

import (
	"errors"
	"testing"
)

// triangle returns K_3 with weights 1,2,3.
func triangle(t *testing.T) *Hypergraph {
	t.Helper()
	g, err := New([]int64{1, 2, 3}, [][]VertexID{{0, 1}, {1, 2}, {0, 2}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return g
}

func TestBasicAccessors(t *testing.T) {
	g := triangle(t)
	if got := g.NumVertices(); got != 3 {
		t.Errorf("NumVertices = %d, want 3", got)
	}
	if got := g.NumEdges(); got != 3 {
		t.Errorf("NumEdges = %d, want 3", got)
	}
	if got := g.Rank(); got != 2 {
		t.Errorf("Rank = %d, want 2", got)
	}
	if got := g.MaxDegree(); got != 2 {
		t.Errorf("MaxDegree = %d, want 2", got)
	}
	if got := g.Weight(1); got != 2 {
		t.Errorf("Weight(1) = %d, want 2", got)
	}
	if got := g.TotalWeight(); got != 6 {
		t.Errorf("TotalWeight = %d, want 6", got)
	}
	if got := g.MinWeight(); got != 1 {
		t.Errorf("MinWeight = %d, want 1", got)
	}
	if got := g.MaxWeight(); got != 3 {
		t.Errorf("MaxWeight = %d, want 3", got)
	}
	if got := g.WeightSpread(); got != 3 {
		t.Errorf("WeightSpread = %d, want 3", got)
	}
}

func TestIncidence(t *testing.T) {
	g := triangle(t)
	tests := []struct {
		v    VertexID
		want []EdgeID
	}{
		{0, []EdgeID{0, 2}},
		{1, []EdgeID{0, 1}},
		{2, []EdgeID{1, 2}},
	}
	for _, tt := range tests {
		got := g.Incident(tt.v)
		if len(got) != len(tt.want) {
			t.Fatalf("Incident(%d) = %v, want %v", tt.v, got, tt.want)
		}
		for i := range got {
			if got[i] != tt.want[i] {
				t.Errorf("Incident(%d)[%d] = %d, want %d", tt.v, i, got[i], tt.want[i])
			}
		}
		if g.Degree(tt.v) != len(tt.want) {
			t.Errorf("Degree(%d) = %d, want %d", tt.v, g.Degree(tt.v), len(tt.want))
		}
	}
}

func TestIsCoverAndCoverWeight(t *testing.T) {
	g := triangle(t)
	tests := []struct {
		name   string
		cover  []VertexID
		isCov  bool
		weight int64
	}{
		{"empty", nil, false, 0},
		{"single vertex misses opposite edge", []VertexID{0}, false, 1},
		{"two vertices cover triangle", []VertexID{0, 1}, true, 3},
		{"all vertices", []VertexID{0, 1, 2}, true, 6},
		{"duplicates counted once", []VertexID{0, 0, 1}, true, 3},
		{"out of range ignored", []VertexID{0, 1, 99}, true, 3},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := g.IsCover(tt.cover); got != tt.isCov {
				t.Errorf("IsCover(%v) = %v, want %v", tt.cover, got, tt.isCov)
			}
			if got := g.CoverWeight(tt.cover); got != tt.weight {
				t.Errorf("CoverWeight(%v) = %d, want %d", tt.cover, got, tt.weight)
			}
		})
	}
}

func TestLocalMaxDegree(t *testing.T) {
	// Star with Δ=4: center has degree 4, leaves degree 1.
	g, err := Star(4, 3, 10)
	if err != nil {
		t.Fatalf("Star: %v", err)
	}
	for e := 0; e < g.NumEdges(); e++ {
		if got := g.LocalMaxDegree(EdgeID(e)); got != 4 {
			t.Errorf("LocalMaxDegree(%d) = %d, want 4", e, got)
		}
	}
}

func TestClone(t *testing.T) {
	g := triangle(t)
	h := g.Clone()
	if h.String() != g.String() {
		t.Fatalf("clone summary differs: %s vs %s", h, g)
	}
	// Mutating the clone's copy of weights must not affect the original.
	hw := h.Weights()
	hw[0] = 99
	if g.Weight(0) != 1 {
		t.Error("Weights() copy aliases original storage")
	}
}

func TestBuilderErrors(t *testing.T) {
	tests := []struct {
		name    string
		build   func() (*Hypergraph, error)
		wantErr error
	}{
		{
			name: "empty edge",
			build: func() (*Hypergraph, error) {
				b := NewBuilder(1, 1)
				b.AddVertex(1)
				b.AddEdge()
				return b.Build()
			},
			wantErr: ErrEmptyEdge,
		},
		{
			name: "vertex out of range",
			build: func() (*Hypergraph, error) {
				b := NewBuilder(1, 1)
				b.AddVertex(1)
				b.AddEdge(0, 5)
				return b.Build()
			},
			wantErr: ErrVertexRange,
		},
		{
			name: "non-positive weight",
			build: func() (*Hypergraph, error) {
				b := NewBuilder(1, 0)
				b.AddVertex(0)
				return b.Build()
			},
			wantErr: ErrNonPositiveWeight,
		},
		{
			name: "edges without vertices",
			build: func() (*Hypergraph, error) {
				b := NewBuilder(0, 1)
				b.AddEdge(0)
				return b.Build()
			},
			wantErr: ErrNoVertices,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := tt.build()
			if !errors.Is(err, tt.wantErr) {
				t.Errorf("Build err = %v, want %v", err, tt.wantErr)
			}
		})
	}
}

func TestBuilderDeduplicatesEdgeVertices(t *testing.T) {
	b := NewBuilder(3, 1)
	b.AddVertices(3, 1)
	b.AddEdge(2, 0, 2, 0, 1)
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	e := g.Edge(0)
	if len(e) != 3 || e[0] != 0 || e[1] != 1 || e[2] != 2 {
		t.Errorf("Edge(0) = %v, want [0 1 2]", e)
	}
}

func TestValidate(t *testing.T) {
	g := triangle(t)
	if err := Validate(g); err != nil {
		t.Errorf("Validate(valid) = %v", err)
	}
}

func TestEmptyHypergraph(t *testing.T) {
	g, err := New(nil, nil)
	if err != nil {
		t.Fatalf("New(empty): %v", err)
	}
	if g.NumVertices() != 0 || g.NumEdges() != 0 || g.Rank() != 0 || g.MaxDegree() != 0 {
		t.Errorf("empty hypergraph has nonzero stats: %s", g)
	}
	if !g.IsCover(nil) {
		t.Error("empty cover should cover empty hypergraph")
	}
	if g.WeightSpread() != 1 {
		t.Errorf("WeightSpread(empty) = %d, want 1", g.WeightSpread())
	}
}

func TestMustBuildPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustBuild on invalid instance did not panic")
		}
	}()
	b := NewBuilder(0, 1)
	b.AddEdge(0)
	b.MustBuild()
}
